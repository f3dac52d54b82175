"""The orbit-proportion product bound over the wreath profiles, kept as a test
oracle: r(M) of one type's class multiset is the multinomial pmf of its counts
under the classes' per-coset proportions rho, and the product of r over the
(cycle length, type) pairs of an element bounds its orbit proportion in any
admissible overgroup of the socle power."""

from dataclasses import dataclass
from fractions import Fraction

from autorbit.multinomial import BadComposition, pmf
from autorbit.stypes import ClassTypeTable
from autorbit.wreath import WreathElement, WreathGroup, profile


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
        class_ids = typing.classes_of_type(tau)
        counts = [sum(1 for c in multiset if c == cid) for cid in class_ids]
        dist = TypeDistribution(tau, class_ids, [typing.rho[c] for c in class_ids], counts)
        bound *= r_value(dist)
    return bound
