"""Automorphism groups of small groups by backtracking over generator images
modulo Inn(G) on the Cayley table, with fingerprint pruning; Aut-orbit reports.

Automorphisms are permutations of element ids (degree = |G|), and Aut(G) is
a plain FiniteGroup acting on those ids, so orbit, conjugacy-class and
quotient machinery applies to it unchanged.  Subgroups of G close by `closure`
on G's Cayley table, Aut(G) by `dimino`, Inn(G) from G's generators' conjugations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .permcore import (FiniteGroup, GroupError, NotNormal, Permutation, ResourceLimit,
                       TooLarge, conjugacy_classes, dimino, is_normal, orbits,
                       sort_rows, sweep, validate_automorphism)
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
    reps = np.array([c[0] for c in table.classes])
    csize = np.array(table.sizes)[table.class_of]
    ord_r = orders[reps]
    powers = np.zeros((reps.size, int(ord_r.max())), dtype=np.int64)
    x = np.zeros(reps.size, dtype=np.int64)
    for k in range(powers.shape[1]):
        x = T[x, reps]
        powers[ord_r > k, k] = csize[x[ord_r > k]]
    key = np.column_stack([ord_r, csize[reps], np.sort(powers, axis=1)])
    return np.unique(key, axis=0, return_inverse=True)[1].ravel()[table.class_of]


def _generating_set(G: FiniteGroup, label: np.ndarray) -> list[int]:
    """Generators with few fingerprint candidates: an element of order |G|, or
    a pair (least id of one fingerprint class, id of another) taking class
    pairs by ascending size product, or after |G| failed pairs the largest
    pair closure extended by descending element order (ties by id).  The
    identity's fingerprint is its own, so no class below holds it."""
    n, orders = G.order, G.element_orders()
    cyclic = np.flatnonzero(orders == n)
    if cyclic.size:
        return [int(cyclic[0])]
    classes = sorted((np.flatnonzero(label == f).tolist() for f in np.unique(label[1:])),
                     key=lambda c: (len(c), c[0]))
    pairs = sorted(((B, A) for i, B in enumerate(classes) for A in classes[i:]),
                   key=lambda p: len(p[0]) * len(p[1]))
    best = (0, [])
    for _, seed in zip(range(n), ([A[0], b] for B, A in pairs for b in B if b != A[0])):
        best = max(best, (np.count_nonzero(G.closure(seed)[0]), seed), key=lambda t: t[0])
        if best[0] == n:
            return seed
    _, gens = best
    tail = G.closure(gens + np.argsort(-orders, kind="stable").tolist())[1]
    return gens + [k for k in tail if k not in gens]


_BATCH_CELLS = 16_000_000  # map-matrix cells per extension batch


def _extend_and_filter(G: FiniteGroup, survivors: np.ndarray, cand: np.ndarray,
                       gen_ids: Sequence[int]) -> np.ndarray:
    """Extend each surviving partial map by each candidate image of the newest
    generator, rebuild it on the enlarged subgroup level by level as
    phi(x*g) = phi(x)*phi(g), and keep the maps that are injective
    homomorphisms on it.  Maps are stored as length-n arrays meaningful on the
    subgroup only."""
    n, T = G.order, G.cayley()
    s, c = survivors.shape[0], cand.size
    batch = max(1, _BATCH_CELLS // n // max(c, 1))
    levels = list(sweep([0], G.right_multiplication(gen_ids), np.zeros(n, dtype=bool)))
    member_arr = np.concatenate([[0]] + [new for _, _, new in levels])
    kept = []
    for lo in range(0, s, batch):
        part = survivors[lo:lo + batch]
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


def automorphism_group(G: FiniteGroup, budget: int = DEFAULT_NODE_BUDGET) -> FiniteGroup:
    """Aut(G) as a group of permutations of G's element ids, found modulo
    Inn(G) (Cannon & Holt 2003): candidate images of each generator extend the
    surviving partial homomorphisms one generator at a time, the first
    generator's only up to conjugacy, and Aut(G) is closed from Inn(G) and the
    survivors at the order they add up to.  `budget` bounds the number of maps built."""
    if G.order > MAX_AUT_CARRIER:
        raise TooLarge(f"|G| = {G.order} exceeds the {MAX_AUT_CARRIER} carrier guard")
    n, table = G.order, conjugacy_classes(G)
    label = _fingerprint_labels(G)  # builds the Cayley table, which G's closures then read
    reps = [c[0] for c in table.classes]
    gen_ids = _generating_set(G, label)

    survivors = np.zeros((1, n), dtype=np.int32)  # the empty partial map
    built = 0
    for j, g in enumerate(gen_ids):
        cand = np.flatnonzero(label == label[g])
        if j == 0:
            cand = np.intersect1d(cand, reps)
        built += survivors.shape[0] * cand.size
        if built > budget:
            raise BudgetExceeded(f"search built {built} maps, budget {budget}")
        survivors = _extend_and_filter(G, survivors, cand, gen_ids[: j + 1])
    # the survivors sending g0 to the representative r, each followed by every
    # inner automorphism, are the automorphisms sending g0 into r's class:
    # |class of r| of them for each such survivor
    order = int(np.array(table.sizes)[table.class_of[survivors[:, gen_ids[0]]]].sum())
    rows = np.concatenate([_conjugation_rows(G, G.generator_ids()), survivors])
    closed = dimino(rows, order=order)
    A = FiniteGroup(n, [Permutation(row) for row in rows[closed.kept]],
                    sort_rows(closed.elements, closed.base), base=closed.base)
    _validate_aut_group(G, A)
    return A


def _conjugation_rows(G: FiniteGroup, ids) -> np.ndarray:
    """Row k: the id map x -> g x g^-1 of G for g = ids[k]."""
    T, ids = G.cayley(), np.asarray(ids, dtype=np.int64)
    return T[T[ids], G.inverse_ids()[ids][:, None]]


def _validate_aut_group(G: FiniteGroup, A: FiniteGroup):
    """A's generators preserve G's multiplication (checked on permutations, not
    on the Cayley table), and A holds all |G|/|Z(G)| inner automorphisms."""
    if not all(validate_automorphism(G, phi.images) for phi in A.generators):
        raise GroupError("a generator of the Aut search result is not an automorphism")
    n_inner = G.order // G.center_ids().size
    if A.order % n_inner != 0 or inner_automorphism_ids(G, A).size != n_inner:
        raise GroupError("|Inn| is not |G|/|Z(G)| or does not divide |Aut|")


def inner_automorphism_ids(G: FiniteGroup, A: FiniteGroup) -> np.ndarray:
    """Ids, inside A (automorphisms of G on its element ids), of the inner
    automorphisms of G, the subgroup that conjugation by G's generators
    generates; for a centerless G this is the canonical embedded copy of it."""
    return A.subgroup_closure(A.ids_of(_conjugation_rows(G, G.generator_ids())))


def maol(G: FiniteGroup, A: FiniteGroup) -> OrbitReport:
    """Orbit report of Aut(G), given on G's element ids, acting on G."""
    if A.degree != G.order:
        raise ActionMismatch("automorphism degree does not match carrier order")
    sizes = sorted((int(o.size) for o in orbits([g.images for g in A.generators],
                                                G.order)[0]), reverse=True)
    return OrbitReport(G.name or "group", sizes)


def class_orbits(A: FiniteGroup, ids: np.ndarray) -> list[int]:
    """Orbit sizes, largest first, of the normal subgroup G of A with these
    sorted ids under conjugation by A: the classes of A inside G.  For
    S <= G <= A = Aut(S), S simple, Aut(G) is N_A(G) = A acting by
    conjugation, so these are the Aut(G)-orbits on G, found without a search
    over G or the classes of all of A."""
    if not is_normal(A, ids):
        raise NotNormal("the subgroup is not normal in Aut(S)")
    maps = (np.searchsorted(ids, A.conjugation_ids(g, ids)) for g in A.generators)
    return sorted((part.size for part in orbits(maps, ids.size)[0]), reverse=True)
