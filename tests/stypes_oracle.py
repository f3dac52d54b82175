"""h(S) by explicit counting, and coarse types with the power rule, kept as
test oracles of `stypes`.  `h_value_direct` is the second route to h(S): the
largest intersection of an Aut(S)-class with a coset of S, over |S|.  A coarse
type is the image of a backward cycle product in AutS/D, for a normal D with
abelian quotient that holds the socle; CT(w) is the set of the coarse types
of w, and the power rule says CT(w^k) = {t^k : t in CT(w)} when k is prime to
the order of w's top."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

import wreath_oracle as wo
from autorbit.permcore import (FiniteGroup, GroupError, conjugacy_classes, coset_partition,
                               cycle_decompose, quotient_group)
from autorbit.stypes import ClassTypeTable
from autorbit.wreath import WreathElement, WreathGroup, bcpc_element


class NonAbelianQuotient(GroupError):
    pass


class GcdViolation(GroupError):
    pass


def classes_of_type(typing: ClassTypeTable, type_id: int) -> list[int]:
    return [c for c in range(typing.n_classes) if typing.type_of_class[c] == type_id]


def h_value_direct(AutS: FiniteGroup, socle_ids: np.ndarray) -> Fraction:
    """(1/|S|) * max over (class, coset) of the size of their intersection, by
    explicit counting."""
    table = conjugacy_classes(AutS)
    coset_of, _ = coset_partition(AutS, np.asarray(socle_ids))
    n_cosets = AutS.order // int(np.asarray(socle_ids).size)
    best = 0
    for cls in table.classes:
        counts = np.bincount(coset_of[cls], minlength=n_cosets)
        best = max(best, int(counts.max()))
    return Fraction(best, int(np.asarray(socle_ids).size))


@dataclass
class CoarseQuotient:
    """AutS/D for a designated normal D with abelian quotient; the coarse-type
    carrier.  For non-Lie-type S the designated subgroup is the socle itself."""

    ambient: FiniteGroup
    quotient: FiniteGroup
    pi: np.ndarray

    def power(self, t: int, k: int) -> int:
        x = int(t)
        k %= int(self.quotient.element_orders()[x])
        out = 0
        for _ in range(k):
            out = self.quotient.mul_ids(out, x)
        return out


def coarse_quotient(AutS: FiniteGroup, d_ids: np.ndarray,
                    socle_ids: np.ndarray | None = None) -> CoarseQuotient:
    """Validates: D normal, D contains the socle (when given), AutS/D abelian."""
    d_ids = np.asarray(d_ids)
    if socle_ids is not None and not set(np.asarray(socle_ids).tolist()) <= set(d_ids.tolist()):
        raise GroupError("designated subgroup does not contain the socle")
    Q, pi = quotient_group(AutS, d_ids, name="coarse")
    if any(s != 1 for s in conjugacy_classes(Q).sizes):
        raise NonAbelianQuotient("AutS/D is not abelian")
    return CoarseQuotient(AutS, Q, pi)


def ct_set(wg: WreathGroup, w: WreathElement, coarse: CoarseQuotient) -> frozenset:
    """CT(w): the set (not multiset) of coarse types of all backward cycle
    products of w.  The wreath base must be the coarse quotient's ambient."""
    if wg.base is not coarse.ambient:
        raise GroupError("wreath base and coarse quotient belong to different groups")
    return frozenset(int(coarse.pi[bcpc_element(wg, w, zeta)])
                     for zeta in cycle_decompose(wg.top.elements[w.top]))


def ct_power_check(wg: WreathGroup, w: WreathElement, k: int,
                   coarse: CoarseQuotient) -> bool:
    """The power rule: for gcd(k, ord(top)) = 1, CT(w^k) must equal
    {t^k : t in CT(w)}; both sides are computed independently."""
    top_order = int(wg.top.element_orders()[w.top])
    if gcd(k, top_order) != 1:
        raise GcdViolation(f"gcd({k}, {top_order}) != 1")
    lhs = ct_set(wg, wo.power(wg, w, k), coarse)
    rhs = frozenset(coarse.power(t, k) for t in ct_set(wg, w, coarse))
    return lhs == rhs
