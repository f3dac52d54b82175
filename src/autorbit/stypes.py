"""S-types of Aut(S)-classes, exact per-coset proportions rho(c), their
maximum h(S), and coarse types with the power rule.

Everything here works on a pair (AutS, S): a fully enumerated group AutS and
the id set of a normal subgroup S (the socle when AutS is an automorphism
group).  Proportions are exact `Fraction`s throughout; no floats."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .permcore import (ConjClassTable, FiniteGroup, GroupError, conjugacy_classes,
                       coset_partition, cycle_decompose, quotient_group)
from .wreath import WreathElement, WreathGroup, bcpc_element


class NonAbelianQuotient(GroupError):
    pass


class GcdViolation(GroupError):
    pass


@dataclass
class OutQuotient:
    """AutS/S with the projection map and the quotient's class structure."""

    quotient: FiniteGroup
    pi: np.ndarray                # ambient element id -> quotient element id
    classes: ConjClassTable       # conjugacy classes of the quotient

    @property
    def order(self) -> int:
        return self.quotient.order


def out_quotient(AutS: FiniteGroup, socle_ids: np.ndarray) -> OutQuotient:
    Q, pi = quotient_group(AutS, np.asarray(socle_ids), name="out")
    return OutQuotient(Q, pi, conjugacy_classes(Q))


@dataclass
class ClassTypeTable:
    """Per Aut(S)-class data: size, S-type (a class of the Out-quotient) and
    the exact proportion rho(c) = |c| / (|S| * |type(c)|)."""

    out: OutQuotient
    classes: ConjClassTable
    type_of_class: np.ndarray     # class id -> quotient class id
    rho: list[Fraction]

    @property
    def n_classes(self) -> int:
        return len(self.rho)

    def classes_of_type(self, type_id: int) -> list[int]:
        return [c for c in range(self.n_classes) if self.type_of_class[c] == type_id]

    def h(self) -> Fraction:
        return max(self.rho)


def class_type_table(AutS: FiniteGroup, socle_ids: np.ndarray) -> ClassTypeTable:
    out = out_quotient(AutS, socle_ids)
    table = conjugacy_classes(AutS)
    type_of = np.empty(len(table.classes), dtype=np.int64)
    rho = []
    for cid, cls in enumerate(table.classes):
        qcls = int(out.classes.class_of[out.pi[table.representative(cid)]])
        type_of[cid] = qcls
        rho.append(Fraction(int(cls.size),
                            int(socle_ids.size) * int(out.classes.sizes[qcls])))
    return ClassTypeTable(out, table, type_of, rho)


def h_value(AutS: FiniteGroup, socle_ids: np.ndarray) -> Fraction:
    """h(S) = max over classes of rho(c)."""
    return class_type_table(AutS, socle_ids).h()


def h_value_direct(AutS: FiniteGroup, socle_ids: np.ndarray) -> Fraction:
    """Independent route: (1/|S|) * max over (class, coset) of the size of
    their intersection, by explicit counting."""
    table = conjugacy_classes(AutS)
    coset_of, _ = coset_partition(AutS, np.asarray(socle_ids))
    n_cosets = AutS.order // int(np.asarray(socle_ids).size)
    best = 0
    for cls in table.classes:
        counts = np.bincount(coset_of[cls], minlength=n_cosets)
        best = max(best, int(counts.max()))
    return Fraction(best, int(np.asarray(socle_ids).size))


# -- coarse types -------------------------------------------------------------

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
    """Lemma-style power rule: for gcd(k, ord(top)) = 1, CT(w^k) must equal
    {t^k : t in CT(w)}; both sides are computed independently."""
    top_order = int(wg.top.element_orders()[w.top])
    if gcd(k, top_order) != 1:
        raise GcdViolation(f"gcd({k}, {top_order}) != 1")
    lhs = ct_set(wg, wg.power(w, k), coarse)
    rhs = frozenset(coarse.power(t, k) for t in ct_set(wg, w, coarse))
    return lhs == rhs
