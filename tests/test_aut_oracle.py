"""The Aut search modulo Inn(G) against the exhaustive staged search it
replaced, kept here as the oracle: a greedy generating set by descending
element order, every fingerprint candidate for every generator, partial
maps rebuilt member by member along BFS words, the surviving maps taken as
the whole of Aut(G), and generators picked by `close_group`.  Both must give
the same automorphism group, element for element; the search's generators
must be irredundant and close to it.

A per-element order loop and per-element tuple fingerprints are oracles here
as well: the search's element orders and fingerprint labels must agree with
them.

The search is in turn the oracle of `catalog.almost_simple_aut`, which builds
Aut(S) from its known structure: the same |Aut(S)|, h(S) and (class size, rho)
multiset for every simple group it covers of order <= 2000, and the same
Aut(G)-orbit sizes for every covered almost simple G of order <= 2000."""

from functools import lru_cache
from fractions import Fraction
from math import factorial, lcm

import numpy as np
import pytest

from autorbit import catalog
from autorbit.autgrp import (_fingerprint_labels, automorphism_group, class_orbits,
                             inner_automorphism_ids, maol)
from autorbit.catalog import projective_order
from autorbit.cli import NONSOLVABLE_LIST
from autorbit.permcore import (POINT_DTYPE, GroupError, Permutation, close_group,
                               conjugacy_classes, dimino)
from autorbit.stypes import class_type_table, h_value, h_value_direct


def encode_rows(mat):
    """Rows as fixed-width byte strings whose byte order matches
    lexicographic order on the integer entries (big-endian cast)."""
    be = np.ascontiguousarray(mat.astype(">u2"))
    return be.view(f"S{2 * mat.shape[1]}").ravel()


def order_of_images(images):
    """Order of one permutation row, following each cycle point by point."""
    seen = np.zeros(images.size, dtype=bool)
    result = 1
    for start in range(images.size):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = int(images[x])
            length += 1
        result = lcm(result, length)
    return result


def fingerprints(G, T):
    """Aut-invariant per element: (order, class size, multiset of class sizes
    along its power sequence)."""
    table = conjugacy_classes(G)
    csize = np.array(table.sizes)[table.class_of]
    orders = G.element_orders()
    fps = []
    for i in range(G.order):
        powers = []
        x = 0
        for _ in range(int(orders[i])):
            x = int(T[x, i])
            powers.append(int(csize[x]))
        fps.append((int(orders[i]), int(csize[i]), tuple(sorted(powers))))
    return fps


def greedy_generating_set(G, T):
    """Generating ids chosen by descending element order (ties by id)."""
    orders = G.element_orders()
    by_order = sorted(range(G.order), key=lambda i: (-int(orders[i]), i))
    gens = []
    closure = {0}
    for eid in by_order:
        if eid in closure:
            continue
        gens.append(eid)
        closure = set(G.subgroup_closure(gens).tolist())
        if len(closure) == G.order:
            return gens
    raise GroupError("generating-set search failed")


def subgroup_bfs(T, gen_ids):
    """BFS closure of <gen_ids> from the identity by right multiplication:
    the member ids in BFS order plus (parent, via-generator index) for every
    member except the identity."""
    members = [0]
    seen = {0}
    parent = {0: -1}
    via = {0: -1}
    head = 0
    while head < len(members):
        x = members[head]
        head += 1
        for k, g in enumerate(gen_ids):
            y = int(T[x, g])
            if y not in seen:
                seen.add(y)
                parent[y] = x
                via[y] = k
                members.append(y)
    return members, parent, via


def extend_along_words(T, survivors, cand, members, parent, via, gen_ids):
    """Extend each surviving partial map by each candidate image of the newest
    generator, rebuild it member by member along the BFS words, and keep the
    maps that are injective homomorphisms on the subgroup."""
    n = T.shape[0]
    s, c = survivors.shape[0], cand.size
    batch = max(1, 16_000_000 // n // max(c, 1))
    member_arr = np.array(members)
    kept = []
    newest_gen = gen_ids[-1]
    for lo in range(0, s, batch):
        part = survivors[lo:lo + batch]
        phi = np.repeat(part, c, axis=0)
        phi[:, newest_gen] = np.tile(cand, part.shape[0])
        for e in members:
            if via[e] >= 0 and e != newest_gen:
                phi[:, e] = T[phi[:, parent[e]], phi[:, gen_ids[via[e]]]]
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
    return np.concatenate(kept, axis=0)


def group_from_permutation_rows(rows, degree):
    """The complete set of permutations as a FiniteGroup, with generators
    picked greedily over the canonical order."""
    mat = rows[np.argsort(encode_rows(rows))]
    gens = []
    G = close_group([], degree=degree)
    for row in mat:
        if not G.contains(Permutation(row)):
            gens.append(Permutation(row))
            G = close_group(gens, degree=degree)
            if G.order == mat.shape[0]:
                break
    assert G.order == mat.shape[0]
    return G


def oracle_automorphism_group(G):
    n = G.order
    T = G.cayley()
    fps = fingerprints(G, T)
    gen_ids = greedy_generating_set(G, T)
    survivors = np.zeros((1, n), dtype=np.int32)
    for j, g in enumerate(gen_ids):
        cand = np.array([x for x in range(n) if fps[x] == fps[g]], dtype=np.int32)
        members, parent, via = subgroup_bfs(T, gen_ids[: j + 1])
        survivors = extend_along_words(T, survivors, cand, members, parent, via,
                                       gen_ids[: j + 1])
    return group_from_permutation_rows(survivors.astype(POINT_DTYPE), n)


def elementary_abelian(p, k):
    """C_p^k as k disjoint p-cycles; not 2-generated for k >= 3."""
    gens = []
    for i in range(k):
        images = list(range(p * k))
        for t in range(p):
            images[i * p + t] = i * p + (t + 1) % p
        gens.append(Permutation(images))
    return close_group(gens, name=f"C{p}^{k}")


def direct_product(G, H):
    """G x H acting on disjoint supports."""
    d, e = G.degree, H.degree
    gens = [Permutation(np.concatenate([g.images, np.arange(d, d + e)])) for g in G.generators]
    gens += [Permutation(np.concatenate([np.arange(d), h.images.astype(int) + d]))
             for h in H.generators]
    return close_group(gens, name=f"{G.name}x{H.name}")


def assert_same_aut(G, aut_order):
    A = automorphism_group(G)
    B = oracle_automorphism_group(G)
    assert A.order == B.order == aut_order
    assert A.elements.tobytes() == B.elements.tobytes()
    assert_irredundant_generators(A)


def assert_irredundant_generators(A):
    """No generator of A lies in the group of those before it, and together
    they close to A's elements."""
    rows = np.array([g.images for g in A.generators]).reshape(-1, A.degree)
    assert dimino(rows).kept == list(range(len(A.generators)))
    assert close_group(A.generators, degree=A.degree).elements.tobytes() == A.elements.tobytes()


CATALOG = [
    ("sym3", 6), ("sym4", 24), ("sym5", 120),
    ("alt4", 24), ("alt5", 120),
    ("cyclic5", 4), ("cyclic8", 4), ("cyclic12", 4), ("cyclic30", 8),
    ("extraspecial(3)", 432), ("extraspecial(5)", 12000),
    ("psl(2,4)", 120), ("psl(2,5)", 120), ("psl(2,7)", 336), ("psl(3,2)", 336),
    ("pgl(2,3)", 24), ("pgl(2,4)", 120), ("pgl(2,5)", 120), ("pgl(2,7)", 336),
    ("pgl(3,2)", 336), ("pgu(3,2)", 432), ("psu(3,2)", 432),
]
NOT_TWO_GENERATED = [(2, 3, 168), (3, 3, 11232), (2, 4, 20160)]
SLOW_CATALOG = [
    ("sym6", 1440), ("alt6", 1440), ("psl(2,9)", 1440), ("psl(2,8)", 1512),
    ("psl(2,11)", 1320), ("pgl(2,9)", 1440), ("psl(2,13)", 2184),
    ("pgl(2,11)", 1320), ("extraspecial(7)", 98784),
]


@pytest.mark.parametrize("name, aut_order", CATALOG)
def test_matches_oracle_on_catalog(name, aut_order):
    assert_same_aut(catalog.resolve(name), aut_order)


@pytest.mark.parametrize("p, k, aut_order", NOT_TWO_GENERATED)
def test_matches_oracle_not_two_generated(p, k, aut_order):
    assert_same_aut(elementary_abelian(p, k), aut_order)


def test_power_profiles_refine_order_and_class_size():
    # on the catalog groups above, order and class size alone separate the
    # fingerprints; in Sym4 x C4 two classes agree in both and differ only in
    # the class sizes along their power sequences
    G = direct_product(catalog.sym(4), catalog.cyclic(4))
    table = conjugacy_classes(G)
    coarse = set(zip(G.element_orders().tolist(), np.array(table.sizes)[table.class_of].tolist()))
    assert len(set(_fingerprint_labels(G).tolist())) == len(coarse) + 1
    assert_orders_and_labels_match(G)
    assert_same_aut(G, 96)


@pytest.mark.slow
@pytest.mark.parametrize("name, aut_order", SLOW_CATALOG)
def test_matches_oracle_slow(name, aut_order):
    assert_same_aut(catalog.resolve(name), aut_order)


def oracle_inner_automorphism_ids(G, A):
    """Inn(G) inside A from the conjugation x -> g x g^-1 by every element g
    of G, one Cayley-table row per g, each row looked up whole."""
    T, inv = G.cayley(), G.inverse_ids()
    return np.unique(A.ids_of(np.array([T[T[g], inv[g]] for g in range(G.order)])))


def assert_inner_automorphisms_match_oracle(G, A):
    inner = inner_automorphism_ids(G, A)
    assert np.array_equal(inner, oracle_inner_automorphism_ids(G, A))
    assert inner.size == G.order // G.center_ids().size


@pytest.mark.parametrize("name", [name for name, _ in CATALOG])
def test_inner_automorphisms_close_from_the_generators(name):
    assert_inner_automorphisms_match_oracle(*searched(name))


def test_inner_automorphisms_of_an_abelian_group_are_trivial():
    G = elementary_abelian(2, 3)  # C2^3: every generator's conjugation row is the identity
    assert_inner_automorphisms_match_oracle(G, automorphism_group(G))


@pytest.mark.slow
@pytest.mark.parametrize("name", [name for name, _ in SLOW_CATALOG])
def test_inner_automorphisms_close_from_the_generators_slow(name):
    G = catalog.resolve(name)
    assert_inner_automorphisms_match_oracle(G, automorphism_group(G))


@pytest.mark.parametrize("name", NONSOLVABLE_LIST + ["extraspecial(3)", "cyclic1"])
def test_aut_rows_are_sorted_as_the_byte_keys(name):
    # the searched rows of Aut(G) are distinct and in the order of their
    # full-row byte strings
    keys = encode_rows(automorphism_group(catalog.resolve(name)).elements)
    assert (keys[1:] > keys[:-1]).all()


def assert_orders_and_labels_match(G):
    """Element orders equal the per-element loop's, and the fingerprint labels
    part the elements exactly as the tuple fingerprints do."""
    orders = G.element_orders()
    assert orders.tolist() == [order_of_images(row) for row in G.elements]
    if G.order > 2000:
        return
    pairs = set(zip(_fingerprint_labels(G).tolist(), fingerprints(G, G.cayley())))
    assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


@pytest.mark.parametrize("name", [name for name, _ in CATALOG] + ["psl(3,4)"])
def test_orders_and_labels_match_oracles(name):
    assert_orders_and_labels_match(catalog.resolve(name))


@pytest.mark.parametrize("p, k", [(p, k) for p, k, _ in NOT_TWO_GENERATED])
def test_orders_and_labels_match_oracles_not_two_generated(p, k):
    assert_orders_and_labels_match(elementary_abelian(p, k))


@pytest.mark.slow
@pytest.mark.parametrize("name", [name for name, _ in SLOW_CATALOG] + ["autpsl34"])
def test_orders_and_labels_match_oracles_slow(name):
    assert_orders_and_labels_match(catalog.resolve(name))


# -- Aut(S) by construction against the search --------------------------------

# every simple group the builder covers with |S| <= 2000, the search's guard,
# and the almost simple groups over them (pgl(2,13), of 2184, is past it)
COVERED_SIMPLE = ([f"alt{n}" for n in range(5, 8) if factorial(n) // 2 <= 2000]
                  + [f"psl({d},{q})" for d, qs in ((2, (4, 5, 7, 8, 9, 11, 13, 16)), (3, (2, 3)))
                     for q in qs if projective_order("SL", d, q) <= 2000])
COVERED_ALMOST_SIMPLE = sorted(set(
    COVERED_SIMPLE + NONSOLVABLE_LIST + ["sym5", "sym6", "pgl(3,2)"]
    + [f"pgl(2,{q})" for q in (4, 5, 7, 8, 9, 11, 13) if projective_order("GL", 2, q) <= 2000]))


@lru_cache(maxsize=None)
def searched(name):
    """(G, Aut(G) from the search), once per name."""
    G = catalog.resolve(name)
    return G, automorphism_group(G)


def rho_multiset(A, ids):
    table = class_type_table(A, ids)
    return sorted(zip(table.classes.sizes, table.rho))


@pytest.mark.parametrize("name", COVERED_SIMPLE)
def test_construction_matches_search_on_simple_groups(name):
    A, socle, *_ = catalog.almost_simple_aut(name)
    S, B = searched(name)
    inner = inner_automorphism_ids(S, B)
    assert A.order == B.order
    assert h_value(A, socle) == h_value_direct(A, socle) == h_value(B, inner)
    assert rho_multiset(A, socle) == rho_multiset(B, inner)


@pytest.mark.parametrize("name", COVERED_ALMOST_SIMPLE)
def test_aut_classes_in_g_are_the_aut_g_orbits(name):
    # S <= G <= Aut(S): the Aut(S)-classes inside G are G's Aut(G)-orbits
    G, B = searched(name)
    assert class_orbits(*catalog.almost_simple_aut(name)[:2]) == maol(G, B).orbit_sizes


@pytest.mark.parametrize("name, out_order, h", [
    ("alt7", 2, Fraction(1, 3)), ("psl(2,16)", 4, Fraction(1, 2)),
    ("psl(2,17)", 2, Fraction(1, 8)), ("psl(3,3)", 2, Fraction(1, 3))])
def test_construction_past_the_search_guard(name, out_order, h):
    A, socle, *_ = catalog.almost_simple_aut(name)
    assert socle.size == catalog.resolve(name).order > 2000
    assert A.order == socle.size * out_order
    assert h_value(A, socle) == h_value_direct(A, socle) == h


def test_psl34_construction_is_the_extended_aut_psl34(aut_psl34, psl34_socle):
    # the limit bounds PSL_3(4), not its Aut(S) of 241,920 elements
    A, socle, *_ = catalog.almost_simple_aut("psl(3,4)", limit=20160)
    assert A.elements.tobytes() == aut_psl34.elements.tobytes()
    assert A.base == aut_psl34.base == [0, 1, 5, 2, 6, 3]
    assert np.array_equal(socle, psl34_socle)
