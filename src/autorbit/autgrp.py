"""Automorphism groups of small groups by backtracking over generator images
modulo Inn(G) on the Cayley table, with fingerprint pruning; their orbit reports.

Automorphisms are permutations of element ids (degree = |G|).  Aut(G) comes as a built
Aut(S) does (`catalog.AlmostSimple`): its generator rows and its order, with no element
enumerated; `aut --out` and `construct hp` close it, by one `close_group(A.rows, order=A.order)`.
Subgroups of G close by a `sweep` of G's Cayley table (`_sweep`), or by the chain of their rows;
Inn(G)'s rows are `inner_rows`.
A built almost simple G's orbits come from `stypes.fuse`, with no search."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .permcore import (FiniteGroup, GroupError, ResourceLimit, TooLarge, _row_blocks,
                       close_group, conjugacy_classes, orbits, point_dtype, schreier_sims,
                       sweep, validate_automorphism)
from .reports import encode_value

MAX_AUT_CARRIER = 2000
DEFAULT_NODE_BUDGET = 2_000_000


class BudgetExceeded(ResourceLimit):
    pass


class ActionMismatch(GroupError):
    pass


@dataclass
class OrbitReport:
    name: str
    orbit_sizes: list[int]  # sorted descending; they sum to |G|

    @property
    def maol(self) -> Fraction:
        """MAOL / |G|, MAOL the largest orbit length."""
        return Fraction(self.orbit_sizes[0], sum(self.orbit_sizes))

    def to_json(self) -> dict:
        return {
            "group": self.name,
            "order": sum(self.orbit_sizes),
            "orbitSizes": self.orbit_sizes,
            "MAOL": self.orbit_sizes[0],
            "maol": encode_value(self.maol),
        }


def _fingerprint_labels(G: FiniteGroup) -> np.ndarray:
    """One int per element numbering its Aut-invariant fingerprint: order,
    class size and the sorted class sizes along its power sequence.  These
    are class functions, so the power sequences run once per class
    representative, all representatives at once on the Cayley table."""
    table = conjugacy_classes(G)
    T, orders = G.cayley(), G.element_orders()
    reps, csize = table.least, np.bincount(table.class_of)[table.class_of]
    ord_r = orders[reps]
    powers = np.zeros((reps.size, int(ord_r.max())), dtype=np.int64)
    x = np.zeros(reps.size, dtype=np.int64)
    for k in range(powers.shape[1]):
        x = T[x, reps]
        powers[ord_r > k, k] = csize[x[ord_r > k]]
    key = np.column_stack([ord_r, csize[reps], np.sort(powers, axis=1)])
    return np.unique(key, axis=0, return_inverse=True)[1].ravel()[table.class_of]


def _sweep(T: np.ndarray, gen_ids: Sequence[int], seen: np.ndarray):
    """`sweep` from the identity under right multiplication by `gen_ids`, read off the table T."""
    cols = T.T[gen_ids]
    return sweep([0], lambda frontier: cols[:, frontier], seen)


def _generating_set(G: FiniteGroup, label: np.ndarray) -> list[int]:
    """Generators with few fingerprint candidates: an element of order |G|, or
    a pair (least id of one fingerprint class, id of another) taking class
    pairs by ascending size product, or after |G| failed pairs the largest
    pair extended by descending element order (ties by id), an element kept iff
    outside the group of the pair and those kept before it (the chain's rule).
    The identity's fingerprint is its own, so no class below holds it."""
    n, orders, T = G.order, G.element_orders(), G.cayley()
    cyclic = np.flatnonzero(orders == n)
    if cyclic.size:
        return [int(cyclic[0])]
    classes = sorted((np.flatnonzero(label == f).tolist() for f in set(label[1:].tolist())),
                     key=lambda c: (len(c), c[0]))
    pairs = sorted(((B, A) for i, B in enumerate(classes) for A in classes[i:]),
                   key=lambda p: len(p[0]) * len(p[1]))
    best = (0, [])
    for _, seed in zip(range(n), ([A[0], b] for B, A in pairs for b in B if b != A[0])):
        for _ in _sweep(T, seed, seen := np.zeros(n, dtype=bool)):
            pass
        best = max(best, (np.count_nonzero(seen), seed), key=lambda t: t[0])
        if best[0] == n:
            return seed
    gens = best[1]  # kept whole, though its second may lie in the first's group
    seeds = gens + np.argsort(-orders, kind="stable").tolist()
    return gens + [seeds[k] for k in schreier_sims(G.elements[seeds]).kept if k >= len(gens)]


def _extend_and_filter(G: FiniteGroup, survivors: np.ndarray, cand: np.ndarray,
                       gen_ids: Sequence[int]) -> np.ndarray:
    """Extend each surviving partial map by each candidate image of the newest
    generator, rebuild it on the enlarged subgroup level by level as
    phi(x*g) = phi(x)*phi(g), and keep the maps that are injective
    homomorphisms on it, checked in full, so the kept maps do not depend on
    the sweep's spanning tree.  Maps are stored as length-n arrays meaningful
    on the subgroup only.  A point x*g the sweep finds is rebuilt from x, read
    off the table as (x*g)*g^-1; the survivors go a block of maps at a time."""
    n, T, inv, c = G.order, G.cayley(), G.inverse_ids(), cand.size
    levels = [(k, T[new, inv[gen_ids[k]]], new)
              for k, new in _sweep(T, gen_ids, np.zeros(n, dtype=bool))]
    member_arr = np.concatenate([[0]] + [new for _, _, new in levels])
    kept = []
    for block in _row_blocks(n * c, survivors.shape[0]):
        part = survivors[block]
        phi = np.repeat(part, c, axis=0)
        phi[:, gen_ids[-1]] = np.tile(cand, part.shape[0])
        # a generator is reached from the identity by itself, so its image
        # stays; other entries defined in earlier stages are rebuilt to the
        # values they had, the maps being homomorphisms on the old subgroup
        for k, src, new in levels:
            phi[:, new] = T[phi[:, src], phi[:, gen_ids[k]][:, None]]
        sub_vals = np.sort(phi[:, member_arr], axis=1)
        ok = (sub_vals[:, 1:] != sub_vals[:, :-1]).all(axis=1)
        for g in gen_ids:
            rows = np.flatnonzero(ok)
            if rows.size == 0:
                break
            lhs = phi[np.ix_(rows, T[g, member_arr])]
            rhs = T[phi[rows, g][:, None], phi[np.ix_(rows, member_arr)]]
            ok[rows[~np.all(lhs == rhs, axis=1)]] = False
        kept.append(phi[ok])
    if not kept:
        return np.empty((0, n), dtype=np.int32)
    return np.concatenate(kept, axis=0)


Aut = namedtuple("Aut", "rows order")  # on G's ids: the kept generator rows (point type), |Aut|


def automorphism_group(G: FiniteGroup, budget: int = DEFAULT_NODE_BUDGET) -> Aut:
    """Aut(G) on G's element ids, found modulo Inn(G) (Cannon & Holt 2003): candidate images
    of each generator extend the surviving partial homomorphisms one generator at a time, the
    first generator's only up to conjugacy.  Its generators are the rows the chain of Inn(G)'s
    and the survivors' rows keeps, at the order they add up to.  `budget` bounds the maps built."""
    if G.order > MAX_AUT_CARRIER:
        raise TooLarge(f"|G| = {G.order} exceeds the {MAX_AUT_CARRIER} carrier guard")
    n, table = G.order, conjugacy_classes(G)
    label = _fingerprint_labels(G)  # builds the Cayley table, which the sweeps then read
    gen_ids = _generating_set(G, label)

    survivors = np.zeros((1, n), dtype=np.int32)  # the empty partial map
    built = 0
    for j, g in enumerate(gen_ids):
        cand = np.flatnonzero(label == label[g])
        if j == 0:
            cand = np.intersect1d(cand, table.least, assume_unique=True)  # both ascending
        built += survivors.shape[0] * cand.size
        if built > budget:
            raise BudgetExceeded(f"search built {built} maps, budget {budget}")
        survivors = _extend_and_filter(G, survivors, cand, gen_ids[: j + 1])
    # the survivors sending g0 to the representative r, each followed by every
    # inner automorphism, are the automorphisms sending g0 into r's class:
    # |class of r| of them for each such survivor
    order = int(np.bincount(table.class_of)[table.class_of[survivors[:, gen_ids[0]]]].sum())
    rows = np.concatenate([inner := inner_rows(G), survivors.astype(inner.dtype)])
    A = Aut(rows[schreier_sims(rows, order=order).kept], order)
    _validate_aut_group(G, A, inner)
    return A


def _validate_aut_group(G: FiniteGroup, A: Aut, inner: np.ndarray):
    """A's generators preserve G's multiplication (checked on permutations, not on the
    Cayley table), and Inn(G), the group of the rows `inner`, has |G|/|Z(G)| elements."""
    if not all(validate_automorphism(G, phi) for phi in A.rows):
        raise GroupError("a generator of the Aut search result is not an automorphism")
    n_inner = G.order // G.center_ids().size
    if A.order % n_inner != 0 or schreier_sims(inner).order != n_inner:
        raise GroupError("|Inn| is not |G|/|Z(G)| or does not divide |Aut|")


def inner_rows(G: FiniteGroup) -> np.ndarray:
    """Inn(G)'s generator rows, conjugation by G's generators on its ids, in point type."""
    return np.array([G.conjugation_ids(c) for c in G.gen_ids],
                    dtype=point_dtype(G.order)).reshape(-1, G.order)


def inner_automorphism_ids(G: FiniteGroup, A: FiniteGroup) -> np.ndarray:
    """Ids, inside the closed A (automorphisms of G on its ids), of Inn(G), the group of
    `inner_rows`; for a centerless G this is the canonical embedded copy of it."""
    return np.sort(A.ids_of(close_group(inner_rows(G)).elements))


def maol(G: FiniteGroup, A: Aut) -> OrbitReport:
    """Orbit report of Aut(G), given by its generator rows on G's element ids, acting on G."""
    if A.rows.shape[1] != G.order:
        raise ActionMismatch("automorphism degree does not match carrier order")
    sizes = sorted(np.bincount(orbits(A.rows, G.order)[1]).tolist(), reverse=True)
    return OrbitReport(G.name or "group", sizes)
