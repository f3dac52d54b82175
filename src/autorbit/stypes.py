"""S-types of Aut(S)-classes, exact per-coset proportions rho(c) and their
maximum h(S).

Everything here works on a pair (AutS, S): a fully enumerated group AutS and
the id set of a normal subgroup S (the socle when AutS is an automorphism
group).  Proportions are exact `Fraction`s throughout; no floats."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .permcore import ConjClassTable, FiniteGroup, conjugacy_classes, quotient_group


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
