"""The multinomial pmf in `Fraction` arithmetic, the orbit-proportion product
bound over the wreath profiles, the partition recursion and the Lagrange-point
value, kept as test oracles: `lemma3_candidate_value` is the `Fraction` route
of `multinomial.lemma3_numerator`; `pmf_kernel` is the scalar reference of
`multinomial.pmf_kernels`; r(M) of one type's class multiset is the
multinomial pmf of its counts under the classes' per-coset proportions rho,
and the product of r over the (cycle length, type) pairs of an element bounds
its orbit proportion in any admissible overgroup of the socle power;
`descending_compositions` is the recursion that
`multinomial._descending_compositions` shortcut at its last part."""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from autorbit.multinomial import multinomial_coefficient
from autorbit.stypes import ClassTypeTable
from autorbit.wreath import WreathElement, WreathGroup, profile
from stypes_oracle import classes_of_type


class BadComposition(ValueError):
    pass


def lemma3_candidate_value(n: int, counts: Sequence[int]) -> Fraction:
    """Value of f(x) = multinomial(n; l) * x_1^(l_1 - 1) * x_2^l_2 ... x_k^l_k
    at the constrained maximum ((l_1-1)/(n-1), l_2/(n-1), ..., l_k/(n-1)),
    exact because the point is rational; 0^0 = 1 when l_1 = 1."""
    counts = list(counts)
    if not counts or any(c < 1 for c in counts) or sum(counts) != n:
        raise BadComposition(f"{counts} is not a composition of {n} into positive parts")
    if sorted(counts, reverse=True) != counts:
        raise BadComposition("counts must be non-increasing")
    if len(counts) == 1:
        return Fraction(1)
    if n < 2:
        raise BadComposition("need n >= 2 when k >= 2")
    value = Fraction(multinomial_coefficient(counts))
    value *= Fraction(counts[0] - 1, n - 1) ** (counts[0] - 1)
    for c in counts[1:]:
        value *= Fraction(c, n - 1) ** c
    return value


def descending_compositions(n: int, k: int, cap: int | None = None):
    """Partitions of n into exactly k positive non-increasing parts, each at most
    `cap`: the recursion `multinomial._descending_compositions` had before it
    yielded the last part directly, which scans down to a k = 0 hit for it."""
    if k == 0:
        if n == 0:
            yield ()
        return
    first_cap = n - (k - 1) if cap is None else min(cap, n - (k - 1))
    for first in range(first_cap, 0, -1):
        for rest in descending_compositions(n - first, k - 1, cap=first):
            yield (first,) + rest


def pmf_kernel(numer: Sequence[int], counts: Sequence[int]) -> int:
    """multinomial(counts) * prod numer_i^counts_i: the pmf at `counts` times
    d^n when rho_i = numer_i / d.  0^0 = 1, so zero-probability classes with
    zero count are neutral."""
    value = multinomial_coefficient(counts)
    for a, c in zip(numer, counts):
        value *= a ** c
    return value


def pmf(rho: Sequence[Fraction], counts: Sequence[int]) -> Fraction:
    """Multinomial pmf at `counts`, over the common denominator of rho."""
    rho = [Fraction(r) for r in rho]
    d = lcm(*(r.denominator for r in rho))
    numer = [r.numerator * (d // r.denominator) for r in rho]
    return Fraction(pmf_kernel(numer, counts), d ** sum(counts))


@dataclass
class TypeDistribution:
    """Counts over the ordered classes of one type, with their exact
    per-coset proportions; sum(rho) must be exactly 1."""

    type_id: int
    class_ids: list[int]
    rho: list[Fraction]
    counts: list[int]

    def __post_init__(self):
        if len(self.class_ids) != len(self.rho) or len(self.rho) != len(self.counts):
            raise BadComposition("class/rho/count lengths differ")
        if any(c < 0 for c in self.counts):
            raise BadComposition("negative count")
        if sum(self.rho, Fraction(0)) != 1:
            raise BadComposition("rho does not sum to 1")

    @property
    def n(self) -> int:
        return sum(self.counts)


def r_value(dist: TypeDistribution) -> Fraction:
    return pmf(dist.rho, dist.counts)


def orbit_upper_bound(wg: WreathGroup, w: WreathElement,
                      typing: ClassTypeTable) -> Fraction:
    """Product over cycle lengths l and types tau of r(M_l^tau(w)): an upper
    bound for the orbit proportion of w in any admissible overgroup of the
    socle power."""
    prof = profile(wg, w, typing=typing)
    bound = Fraction(1)
    for (_, tau), multiset in sorted(prof.by_length_and_type.items()):
        class_ids = classes_of_type(typing, tau)
        counts = [sum(1 for c in multiset if c == cid) for cid in class_ids]
        dist = TypeDistribution(tau, class_ids, [typing.rho[c] for c in class_ids], counts)
        bound *= r_value(dist)
    return bound
