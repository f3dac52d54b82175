"""S-types of Aut(S)-classes, exact per-coset proportions rho(c) and their
maximum h(S), read off Aut(S)'s orbits on the cosets of S (`coset_classes`):
S's orbits on a coset S·a, joined by C(ā)'s members (`fuse`), which on the
trivial coset gives `maol --group`'s orbits.  Neither lifts all of S to
Aut(S)'s points: they read S's lifted rows a column, or a few rows, at a time.

The rest works on a pair (AutS, S): a fully enumerated group AutS and the id
set of a normal subgroup S (the socle when AutS is an automorphism group), and
is the tests' oracle of `coset_classes`.  Proportions are exact `Fraction`s."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .catalog import AlmostSimple
from .permcore import (ConjClassTable, FiniteGroup, GroupError, NotNormal, close_group,
                       conjugacy_classes, orbits, point_dtype, quotient_group)


@dataclass
class CosetClasses:
    """Aut(S)'s classes, one entry each: its size, its type (a class id of
    `out`'s conjugacy classes) and rho(c) = |c ∩ S·a| / |S|, a of its type."""

    out: FiniteGroup              # Aut(S)/S on its cosets, as `quotient_group` builds it
    sizes: list[int]
    types: list[int]
    rho: list[Fraction]


def coset_classes(G: AlmostSimple, numbered: bool = False) -> CosetClasses:
    """The classes of A = Aut(S), for G = S from `catalog.almost_simple` or any G
    normal in A, from A's rows, |A| and `lift`, with no closure of A.  A class c
    meets a coset G·a of its type (a class of A/G) in one orbit of the preimage
    N_a of C(ā), acting by conjugation: g·(s·a)·g⁻¹ = (g·s·a·g⁻¹·a⁻¹)·a.  G's
    generators give one map on G's ids each (`twist`), and `fuse` joins their
    orbits by C(ā)'s members, each read on one element per orbit.  The cosets come
    from a search over the rows outside G (a row in G finds none, as G is
    normal), and |A/G|·|G| must be |A| (else `GroupError`); A/G closes from the
    translations of those rows, which the search looked up.  No step lifts all
    of G: a map folds the |base| columns it reads, and a lifted column is built
    once.  With `numbered`, cosets and classes are ordered by their least rows on
    A's points, as `quotient_group` and `conjugacy_classes` number them on the closed A."""
    S, rows = G.group, np.asarray(G.aut_rows, point_dtype(np.shape(G.aut_rows)[1]))
    lines = {}  # A's points past S's, each a column over S's rows, built once

    def column(x):
        if x < S.degree:
            return S.elements[:, x]
        if x not in lines:
            lines[x] = G.lift(S.elements, [x])[:, 0]
        return lines[x]

    reps = [np.arange(rows.shape[1], dtype=rows.dtype)]
    outer = rows[[_coset_of(G, reps, g) < 0 for g in rows]]
    found = []  # found[j][k]: the coset of r_j·g, g the k-th outer row
    for r in reps:  # the search appends while it reads, to one coset past |A|
        found.append([])
        for g in outer:
            k = _coset_of(G, reps, r[g])
            if k < 0 and len(reps) * S.order <= G.aut_order:
                k = len(reps)
                reps.append(r[g])
            found[-1].append(k)
    if len(reps) * S.order != G.aut_order:
        raise GroupError(f"the cosets of {S.order} elements do not make {G.aut_order}")
    searched = np.arange(len(reps))  # searched[j]: the search's index of coset j
    if numbered:
        one = np.zeros(S.order, dtype=np.int64)
        least = [_least_rows(G, column, r, one, 1)[0] for r in reps]
        searched = np.lexsort(np.array(least).T[::-1])
        reps = [least[i] for i in searched]
    rank = np.argsort(searched)
    found = np.array(found, dtype=np.int64).reshape(len(reps), len(outer))[searched]
    out = close_group(rank[found].T, name="out", order=len(reps))  # j -> S·r_j·g
    reps = np.array(reps)[np.argmin(out.elements, axis=1)]  # q sends S·reps[q] to S
    mul, inverse, gens = out.cayley(), out.inverse_ids(), G.lift(S.elements[S.gen_ids])

    def twist(g, a, b):  # ids of g·s·a·g⁻¹·b⁻¹ over S, from g(s(a(g⁻¹(b⁻¹(x))))), x in S's base
        cols = a[np.argsort(g)[np.argsort(b)[S.base]]]
        return S.map_ids([column(x) for x in cols], g)

    sizes, types, rho, least, owner = [], [], [], [], []
    for tau, members in enumerate(conjugacy_classes(out).classes):
        q = members[0]
        centralizer = np.flatnonzero(mul[:, q] == mul[q])[1:]  # C(q) but the identity
        a = reps[q]
        parts, orbit_of = orbits((twist(g, a, a) for g in gens), S.order)
        orbit_of = fuse(S, parts, orbit_of, a, reps[centralizer], G.lift)[orbit_of]  # N_a's orbits
        counts = np.bincount(orbit_of).tolist()
        sizes += [c * members.size for c in counts]
        types += [tau] * len(counts)
        rho += [Fraction(c, S.order) for c in counts]
        for y in members if numbered else ():  # each fibre's least row, over G·y
            x = np.flatnonzero(mul[mul[:, q], inverse] == y)[0]  # x·q·x⁻¹ = y
            labels = np.empty_like(orbit_of)
            labels[twist(reps[x], a, reps[y])] = orbit_of
            least.append(_least_rows(G, column, reps[y], labels, len(counts)))
            owner.extend(range(len(sizes) - len(counts), len(sizes)))
    if numbered:
        by_row = np.lexsort(np.concatenate(least).T[::-1])
        order = np.argsort(np.unique(np.array(owner)[by_row], return_index=True)[1])
        sizes, types, rho = ([x[c] for c in order] for x in (sizes, types, rho))
    return CosetClasses(out, sizes, types, rho)


def fuse(S: FiniteGroup, parts, orbit_of: np.ndarray, a: np.ndarray, outer: np.ndarray,
         lift=np.asarray) -> np.ndarray:
    """The orbit, numbered by least member, of each of `parts`: S's orbits on the
    coset S·a, written on S's ids s for s·a and numbered by least member, fused by
    the rows `outer` acting by conjugation, b·s·a·b⁻¹ = (b·s·a·b⁻¹·a⁻¹)·a.  Each row
    maps t·a, t a generator of S, and s·a, s the least member of each orbit (the
    identity first), read back on S's (the first) points: a miss, where b does not
    normalize S or S·a, is `NotNormal`."""
    mats = lift(S.elements[np.concatenate([S.gen_ids, [part[0] for part in parts]])])
    ids = [S._index.find(b[mats[:, a[np.argsort(b)[np.argsort(a)[:S.degree]]]]])
           for b in np.asarray(outer, point_dtype(np.shape(outer)[-1]))]
    if any(np.any(m < 0) for m in ids):
        raise NotNormal("the subgroup is not normal in Aut(S)")
    return orbits((orbit_of[m[S.gen_ids.size:]] for m in ids), len(parts))[1]


def _coset_of(G: AlmostSimple, reps, x: np.ndarray) -> int:
    """Index of the coset S·r, r in `reps`, that holds the row x, or -1: one lookup
    in S of the rows x·r⁻¹ on S's points, each hit checked on its lifted row."""
    S, ys = G.group, x[np.argsort(reps, axis=1)]
    pos = S._index.find(ys[:, :S.degree])
    hit = np.flatnonzero(pos >= 0)
    hit = hit[np.all(G.lift(S.elements[pos[hit]]) == ys[hit], axis=1)]
    return int(hit[0]) if hit.size else -1


def _least_rows(G: AlmostSimple, column, r: np.ndarray, labels: np.ndarray,
                n: int) -> np.ndarray:
    """For each label 0..n-1, the least of the lifted rows s·r (lexicographically)
    over the s with that label: the candidates are narrowed one column at a time,
    read off `column` while they are all of S and lifted on their rows after."""
    S, cand = G.group, np.arange(len(labels))
    for x in r:
        if cand.size == n:
            break
        col = column(x) if cand.size == S.order else G.lift(S.elements[cand], [x])[:, 0]
        at = labels[cand]
        low = np.full(n, np.iinfo(col.dtype).max, dtype=col.dtype)
        np.minimum.at(low, at, col)
        cand = cand[col == low[at]]
    rows = np.empty((n, len(r)), dtype=point_dtype(len(r)))
    rows[labels[cand]] = G.lift(S.elements[cand])[:, r]
    return rows


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
