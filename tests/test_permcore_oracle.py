"""The closure, lookup and class routines of `permcore` against the ones
they replaced, kept here as oracles: a BFS closure over a Python set of
full-row byte strings, lookup by `searchsorted` on full-row byte keys, and
one BFS per conjugacy class.  Both sides must give the same element list
byte for byte, the same class for every element and the same ids; the
kept generators must each lie outside the closure of the earlier ones.
The conjugation maps and the Cayley table, which look products up by their
base images alone, must give the ids that `ids_of` gives the full rows;
a map over the whole group sorts its keys, and its classes must be the
orbits of the full-row maps.
The row index behind lookup, `_RowIndex`, is checked on its own against a
Python dict of row bytes, also under folds that make distinct base images
collide, as the uint64 fold does once it wraps; `lex_order`, a packed sort
per chunk of columns, against the `np.lexsort` it replaced.
The stabilizer chain (`schreier_sims`), which builds no element, is checked
as `_enumerate` lists it against Dimino's closure it replaced
(`closure_oracle.dimino`): the same elements, the same kept generators and
the same order.  Its sift, which reads a chunk only up to its first miss,
is checked against the sift that read every row through every level
(`closure_oracle.first_outside`): the same row, residue and level.
Subgroup closures, by the chain of the seeds' rows or, below the Aut search's
carrier guard, by a `sweep` of the Cayley table (`autgrp._sweep`), are checked
against a Dimino closure of the seeds' rows, looked up by `ids_of`
(`subgroup_oracle.closure`), which keeps the same seeds by the same rule, and
against Dimino's rule on ids: each kept seed sweeping all of H under every kept
seed, each product looked up by its full row."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autorbit import autgrp, catalog, permcore
from autorbit.autgrp import automorphism_group
from autorbit.cli import NONSOLVABLE_LIST
from autorbit.permcore import (FiniteGroup, GroupError, _RowIndex, close_group, conjugacy_classes,
                               lex_order, orbits, parse_cycles, point_dtype, schreier_sims,
                               sort_rows, sweep)
from closure_oracle import dimino, first_outside as oracle_first_outside
from subgroup_oracle import closure as oracle_closure, conjugation_ids as oracle_conjugation_ids
from test_catalog import _covered


def point_row(images):
    return np.array(images, dtype=point_dtype(len(images)))


def encode_rows(mat):
    """Rows as fixed-width byte strings whose byte order matches
    lexicographic order on the integer entries (big-endian cast)."""
    be = np.ascontiguousarray(mat.astype(">u2"))
    return be.view(f"S{2 * mat.shape[1]}").ravel()


def oracle_elements(generators, degree):
    """BFS closure under right multiplication, deduplicated on full rows."""
    ident = np.arange(degree, dtype=point_dtype(degree))
    seen, rows, frontier = {ident.tobytes()}, [ident], ident[None, :]
    while frontier.size:
        new_rows = []
        for g in generators:
            for row in frontier[:, g]:
                if row.tobytes() not in seen:
                    seen.add(row.tobytes())
                    new_rows.append(row)
        frontier = np.array(new_rows, dtype=ident.dtype).reshape(-1, degree)
        rows.extend(new_rows)
    mat = np.array(rows, dtype=ident.dtype)
    return mat[np.argsort(encode_rows(mat))]


def oracle_ids_of(keys, mat):
    """Ids by `searchsorted` of the rows' full byte keys in the sorted `keys`."""
    query = encode_rows(np.asarray(mat))
    pos = np.searchsorted(keys, query)
    if np.any(pos >= len(keys)) or not np.array_equal(keys[pos], query):
        raise GroupError("permutation not in group")
    return pos


def oracle_class_of(elements, generators):
    """One BFS per class, conjugating the frontier by every generator."""
    class_of = np.full(len(elements), -1, dtype=np.int64)
    keys, n_classes = encode_rows(elements), 0
    pairs = [(g, np.argsort(g)) for g in generators]
    for start in range(len(elements)):
        if class_of[start] >= 0:
            continue
        class_of[start] = n_classes
        frontier = np.array([start])
        while frontier.size:
            rows, fresh = elements[frontier], []
            conj = np.concatenate([rows[:0]] + [gi[rows[:, ginv]] for gi, ginv in pairs])
            for eid in oracle_ids_of(keys, conj):
                if class_of[eid] < 0:
                    class_of[eid] = n_classes
                    fresh.append(eid)
            frontier = np.array(fresh, dtype=np.int64)
        n_classes += 1
    return class_of


def assert_matches_oracle(G, generators):
    mat = oracle_elements(generators, G.degree)
    assert G.elements.dtype == mat.dtype and G.elements.tobytes() == mat.tobytes()
    assert np.array_equal(conjugacy_classes(G).class_of, oracle_class_of(mat, generators))
    rng = np.random.default_rng(G.order)
    a, b = rng.integers(G.order, size=(2, min(G.order, 500)))
    query = np.concatenate([np.take_along_axis(mat[a], mat[b], axis=1),  # products
                            np.argsort(mat, axis=1), mat[::-1]])
    assert np.array_equal(G.ids_of(query), oracle_ids_of(encode_rows(mat), query))


def assert_kept_generators(G, generators):
    """G keeps exactly the generators outside the closure of the kept ones
    before them, and those generate G."""
    kept, closure = [], {np.arange(G.degree, dtype=point_dtype(G.degree)).tobytes()}
    for g in generators:
        if g.tobytes() not in closure:
            kept.append(g)
            closure = {row.tobytes() for row in oracle_elements(kept, G.degree)}
    assert G.elements[G.gen_ids].tolist() == [g.tolist() for g in kept]
    assert len(closure) == G.order


def elementary_abelian_2(k):
    """C_2^k as k disjoint transpositions on 2k points."""
    gens = []
    for i in range(k):
        images = list(range(2 * k))
        images[2 * i], images[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(point_row(images))
    return gens


CATALOG = [
    "sym3", "sym5", "sym7", "alt4", "alt6", "alt7", "cyclic1", "cyclic12", "cyclic97",
    "extraspecial(3)", "extraspecial(7)", "psl(2,8)", "psl(2,13)", "pgl(2,9)",
    "psl(3,2)", "psl(3,3)", "psu(3,2)", "pgu(3,2)", "psu(3,3)", "psl(3,4)", "pgu(4,2)",
]


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_matches_oracle(name):
    G = catalog.resolve(name)
    generators = list(G.elements[G.gen_ids])
    assert_matches_oracle(G, generators)
    assert_kept_generators(G, generators)


def assert_conjugation_matches_full_rows(G):
    for c in G.gen_ids:
        assert np.array_equal(G.conjugation_ids(c), oracle_conjugation_ids(G, c))


@pytest.mark.parametrize("name", CATALOG + ["pgl(3,4)", "pgl(4,2)"])
def test_conjugation_ids_match_full_rows(name):
    assert_conjugation_matches_full_rows(catalog.resolve(name))


@pytest.mark.slow
@pytest.mark.parametrize("name", ["pgu(3,4)", "autpsl34"])
def test_large_conjugation_ids_match_full_rows(name):
    assert_conjugation_matches_full_rows(catalog.resolve(name))


@pytest.mark.parametrize("name", NONSOLVABLE_LIST + ["extraspecial(3)"])
def test_cayley_matches_full_rows(name):
    G = catalog.resolve(name)
    E = G.elements
    full = np.take(E, E, axis=1).reshape(-1, G.degree)  # row i * n + j: E[i] * E[j]
    assert np.array_equal(G.cayley(), G.ids_of(full).reshape(G.order, G.order))


def seed_sets(G, pairs=20):
    """Each class representative, each whole class and seeded random pairs of ids."""
    classes = conjugacy_classes(G).classes
    randoms = np.random.default_rng(G.order).integers(G.order, size=(pairs, 2))
    return [[c[0]] for c in classes] + [c.tolist() for c in classes] + randoms.tolist()


LARGE = ["psl(3,4)", "pgu(4,2)"]  # the closure oracles run these with --runslow


def assert_closures_match_dimino(G):
    # the chain of the seeds' rows keeps Dimino's seeds and reaches its order; on a
    # group the Aut search takes, the table sweep of the seeds reaches its members
    T = G.cayley() if G.order <= autgrp.MAX_AUT_CARRIER else None
    for seeds in seed_sets(G):
        ids, oracle_kept = oracle_closure(G, seeds)
        chain = schreier_sims(G.elements[seeds])
        assert [seeds[k] for k in chain.kept] == oracle_kept and chain.order == ids.size
        if T is not None:
            for _ in autgrp._sweep(T, seeds, seen := np.zeros(G.order, dtype=bool)):
                pass
            assert np.array_equal(np.flatnonzero(seen), ids)


@pytest.mark.parametrize("name", [name for name in CATALOG if name not in LARGE])
def test_subgroup_closure_matches_dimino(name):
    assert_closures_match_dimino(catalog.resolve(name))


@pytest.mark.slow
@pytest.mark.parametrize("name", LARGE + ["autpsl34"])
def test_large_subgroup_closures_match_dimino(name):
    assert_closures_match_dimino(catalog.resolve(name))


def full_sweep_closure(G, seed_ids):
    """Dimino's rule on ids, the mask of <seeds> and the kept seeds: a seed inside is
    dropped, and a kept one sweeps every member so far under all the kept seeds, each
    product x*g looked up by its full row."""
    E, inside, kept = G.elements, np.zeros(G.order, dtype=bool), []
    inside[0] = True
    for s in seed_ids:
        if inside[s]:
            continue
        kept.append(int(s))
        step = lambda frontier: [G.ids_of(E[frontier][:, E[g]]) for g in kept]
        for _ in sweep(np.flatnonzero(inside), step, inside):
            pass
    return inside, kept


@pytest.mark.parametrize("name", [name for name in CATALOG if name not in LARGE])
def test_closure_matches_the_full_sweep(name):
    # the chain keeps the seeds that Dimino's rule keeps on ids, and closes to as many
    G = catalog.resolve(name)
    for seeds in seed_sets(G):
        inside, kept = full_sweep_closure(G, seeds)
        chain = schreier_sims(G.elements[seeds])
        assert [seeds[k] for k in chain.kept] == kept
        assert chain.order == np.count_nonzero(inside)


def test_conjugation_by_a_non_member_raises():
    # a conjugator is an element id, and a non-member has none
    A5, t = catalog.alt(5), point_row([1, 0, 2, 3, 4])  # (1 2) normalizes A5
    assert catalog.sym(5).id_of(t) >= 0 and A5._index.find(t[None, :])[0] == -1
    with pytest.raises(GroupError):
        A5.id_of(t)


def test_locate_raises_on_a_key_not_stored():
    G = close_group([[1, 0, 3, 2]])  # <(1 2)(3 4)>
    index = G._index
    assert G.base == [0]
    assert np.array_equal(index.locate(G.elements[:, G.base]), np.arange(G.order))
    absent = np.array([[2]], dtype=G.elements.dtype)  # no element sends point 1 to point 3
    for images in (absent, np.concatenate([G.elements[:, G.base], absent])):
        with pytest.raises(GroupError):
            index.locate(images)


WHOLE_GROUP_CASES = [pytest.param(name, id=name) for name in CATALOG + ["autpsl34", "c2_14"]] + [
    pytest.param(case.id, marks=case.marks, id=case.id) for case in _covered()
    if case.id not in CATALOG]


@pytest.mark.parametrize("name", WHOLE_GROUP_CASES)
def test_whole_group_maps_match_the_per_row_lookup(name):
    # a map over all of G sorts its keys (`locate_all`); `ids_of` confirms
    # each full row, so the reference does not share the key path.  c2_14:
    # the weighted fold wraps, and the keys are hashes
    G = close_group(elementary_abelian_2(14)) if name == "c2_14" else catalog.resolve(name)
    per_row = [oracle_conjugation_ids(G, c) for c in G.gen_ids]
    for c, expected in zip(G.gen_ids, per_row):
        assert np.array_equal(G.conjugation_ids(c), expected)
    assert np.array_equal(conjugacy_classes(G).class_of, orbits(per_row, G.order)[1])


CYCLIC_SIZES = [1, 2, 16, 17, 1024, 1025]  # p = bits of n - 1: none for one element


@pytest.mark.parametrize("gens", [[point_row([1, 0, 2, 3]), point_row([1, 2, 3, 0])],
                                  elementary_abelian_2(14)]
                         + [[point_row(list(range(1, n)) + [0])] for n in CYCLIC_SIZES],
                         ids=["sym4", "c2_14"] + [f"cyclic{n}" for n in CYCLIC_SIZES])
def test_locate_all_takes_the_stored_keys_in_any_order(gens):
    # c2_14: the fold wraps, a hash; cyclic n: one more position bit past each 2^k
    G = close_group(gens)
    index, perm = G._index, np.random.default_rng(0).permutation(G.order)
    assert index._p == (G.order - 1).bit_length()
    keys = index._fold(G.elements[:, G.base])  # the key of id i at i
    weighted = sum(w * G.elements[:, x].astype(np.uint64) for w, x in zip(index.w, G.base))
    assert np.array_equal(weighted, keys)  # the weights `map_ids` folds into g
    assert np.array_equal(index.locate_all(keys[perm]), perm)
    i = min(3, G.order - 1)
    changed, repeated = keys.copy(), keys.copy()
    changed[i] += np.uint64(G.order)
    assert changed[i] not in keys
    repeated[i] = keys[i - 1]  # one element: the key itself, not a bad set
    for bad in [changed, keys[:-1], np.concatenate([keys, keys[:1]])] + [repeated][:i]:
        before = bad.copy()
        with pytest.raises(GroupError, match="the keys are not the stored keys"):
            index.locate_all(bad)
        assert np.array_equal(bad, before)  # no partial answer written over the keys


@pytest.mark.slow
@pytest.mark.parametrize("name", ["pgl(3,4)", "pgu(3,4)", "autpsl34"])
def test_large_catalog_matches_oracle(name):
    G = catalog.resolve(name)
    assert_matches_oracle(G, list(G.elements[G.gen_ids]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(
    st.permutations(list(range(d))).map(point_row), min_size=1, max_size=4)))
def test_random_groups_match_oracle(generators):
    G = close_group(generators)
    assert_matches_oracle(G, generators)
    assert_kept_generators(G, generators)


def recorded_closures(build):
    """The (generator rows, order) of each group build() enumerates: the
    `schreier_sims` chains passed to `_enumerate`, not those asked only an order."""
    calls, enumerated = [], []
    real_chain, real_enumerate = permcore.schreier_sims, permcore._enumerate

    def recording(rows, limit, order):
        calls.append((rows, order, chain := real_chain(rows, limit, order)))
        return chain
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(permcore, "schreier_sims", recording)
        patch.setattr(permcore, "_enumerate",
                      lambda chain, *a: enumerated.append(chain) or real_enumerate(chain, *a))
        build()
    return [(rows, order) for rows, order, chain in calls
            if any(chain is other for other in enumerated)]


def chain_elements(rows, order):
    """The `schreier_sims` chain of `rows` and its elements as `_enumerate` lists them."""
    chain = schreier_sims(rows, order=order)
    return chain, permcore._enumerate(chain, rows.shape[1])


def assert_chain_matches_dimino(rows, order):
    """The same elements, sorted, the same kept generators and the same order."""
    (chain, elements), oracle = chain_elements(rows, order), dimino(rows, order=order)
    assert chain.order == len(elements) == len(oracle.elements) and chain.kept == oracle.kept
    assert (sort_rows(elements, chain.base, chain.run).tobytes()
            == oracle.elements[lex_order(oracle.elements, oracle.base)].tobytes())


@pytest.mark.parametrize("name", CATALOG + ["autpsl34"])
def test_catalog_closures_match_dimino(name):
    closures = recorded_closures(lambda: catalog.resolve(name))
    assert [order for _, order in closures] == [catalog.resolve(name).order]
    for rows, order in closures:
        assert_chain_matches_dimino(rows, order)


@pytest.mark.parametrize("name, aut_order", [
    ("extraspecial(3)", 432), ("extraspecial(5)", 12000), ("pgu(3,2)", 432)])
def test_aut_search_closures_match_dimino(monkeypatch, name, aut_order):
    # the search chains Inn(G)'s and the survivors' rows at |Aut(G)|, most of
    # them dropped, and enumerates nothing; the rows it keeps close once, at
    # that order, as `aut --out` closes them, and both match Dimino's closure
    G = catalog.resolve(name)
    chained, chain = [], autgrp.schreier_sims
    monkeypatch.setattr(autgrp, "schreier_sims", lambda rows, *a, **k: chained.append(
        (rows, k.get("order"))) or chain(rows, *a, **k))
    found = []
    assert recorded_closures(lambda: found.append(automorphism_group(G))) == []
    (A,), ((rows, order),) = found, [(r, o) for r, o in chained if o is not None]
    assert order == A.order == aut_order
    assert_chain_matches_dimino(rows, order)
    kept = schreier_sims(rows, order=order).kept
    assert len(kept) < len(rows) and np.array_equal(A.rows, rows[kept])
    closures = recorded_closures(lambda: close_group(A.rows, order=A.order))
    assert [order for _, order in closures] == [aut_order]
    assert_chain_matches_dimino(*closures[0])


@pytest.mark.parametrize("name, sifts", [("sym6", 8), ("psl(2,8)", 11), ("pgl(3,4)", 17),
                                          ("autpsl34", 21)])
def test_a_completion_round_sifts_one_stream(monkeypatch, name, sifts):
    # the Schreier rows of levels j, j-1, ..., 0 sift as one stream of blocks
    # from level 0, not one sift per level, generator and block; the closures
    # above match Dimino's all the same.  The chain of PGL_3(4) and of
    # Aut(PSL_3(4)) opens at 0, the least point a generator moves; it took 19
    # and 23 sifts when it opened at 1, the least point the first kept
    # generator moves, and reached 0 at its fourth level
    calls, real = [], permcore._first_outside
    monkeypatch.setattr(permcore, "_first_outside", lambda *a: calls.append(a) or real(*a))
    catalog.resolve(name)
    assert len(calls) == sifts


def assert_same_sift(found, expected):
    """Both None, or the same row index and level and the same residue, dtype too."""
    assert (found is None) == (expected is None)
    if found is not None:
        (i, row, j), (oi, orow, oj) = found, expected
        assert (i, j) == (oi, oj) and row.dtype == orow.dtype and np.array_equal(row, orow)


@pytest.mark.parametrize("name", CATALOG + ["pgl(3,4)", "autpsl34"])
def test_every_catalog_sift_matches_the_oracle(monkeypatch, name):
    # each sift of the build, generator chunks and Schreier streams alike
    found, real = [], permcore._first_outside

    def both(chain, lo, rows):
        found.append(real(chain, lo, rows))
        assert_same_sift(found[-1], oracle_first_outside(chain, lo, rows))
        return found[-1]
    monkeypatch.setattr(permcore, "_first_outside", both)
    catalog.resolve(name)
    assert found


def on_6(*cycles):
    """The rows on 6 points of 1-based cycle strings."""
    return np.array([parse_cycles(c, 6) for c in cycles])


@pytest.mark.parametrize("cycles, expected", [
    # (2 3) fixes the base but is odd: the full rows differ, at level 2 = len(chain);
    # (2 5) misses level 1's orbit and (1 6) level 0's: the first row outside wins
    (["()", "(2 3)", "(2 5)", "(1 6)"], (1, 2)),
    (["()", "(2 5)", "(1 6)"], (1, 1)),
    (["(2 3)", "(1 6)"], (0, 2)),
    (["(1 6)", "(2 5)"], (0, 0)),
    (["()", "(1 2 3)", "(1 2)(3 4)"], None),
])
def test_the_first_row_outside_is_found_across_levels(cycles, expected):
    levels, rows = schreier_sims(on_6("(1 2 3)", "(2 3 4)")).levels, on_6(*cycles)  # Alt(4)
    assert [level.point for level in levels] == [0, 1]
    found = permcore._first_outside(levels, 0, rows)
    assert_same_sift(found, oracle_first_outside(levels, 0, rows))
    assert (found if found is None else found[::2]) == expected


class Unread:
    def __getitem__(self, key):
        raise AssertionError("a level past the first miss was read")


def test_the_sift_stops_at_the_first_miss():
    # Sym(4) on 6 points has three levels; (1 6) misses level 0's orbit, so no
    # row of the chunk is looked up at a level past it
    levels = schreier_sims(on_6("(1 2 3 4)", "(1 2)")).levels
    rows = on_6("(1 6)", "()", "(2 3)", "(2 5)")
    assert len(levels) == 3
    for level in levels[1:]:
        level.pos = level.inv = Unread()
    i, residue, j = permcore._first_outside(levels, 0, rows)
    assert (i, j) == (0, 0) and np.array_equal(residue, rows[0])


@st.composite
def chain_and_chunk(draw):
    """The chain levels of generators that move only the points below m, and 1..6
    rows of degree d: members, which pass, and permutations fixing the points
    below a drawn f, which may miss at any level or fix the base and not be 1."""
    d = draw(st.integers(1, 10))
    m = draw(st.integers(1, d))
    gens = draw(st.lists(st.permutations(range(m)).map(
        lambda p: point_row(list(p) + list(range(m, d)))), min_size=1, max_size=3))
    member = st.lists(st.sampled_from(gens), max_size=4).map(
        lambda word: point_row(functools.reduce(lambda row, g: row[g], word, np.arange(d))))
    fixing = st.integers(0, d).flatmap(lambda f: st.permutations(range(f, d)).map(
        lambda p: point_row(list(range(f)) + list(p))))
    rows = draw(st.lists(st.one_of(member, fixing), min_size=1, max_size=6))
    return schreier_sims(np.array(gens), limit=10 ** 7).levels, np.array(rows)


@settings(max_examples=200, deadline=None)
@given(chain_and_chunk())
def test_the_sift_matches_the_oracle_on_random_rows(case):
    levels, rows = case
    found = permcore._first_outside(levels, 0, rows)
    assert_same_sift(found, oracle_first_outside(levels, 0, rows))


@pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
def test_cyclic_groups_close_in_the_narrowest_point_type(n, dtype):
    # an n-cycle's group is its rotations x -> x + k mod n, in the order of k:
    # 256 points fit one byte each, with point 255 kept, and 257 take two
    G = catalog.resolve(f"cyclic{n}")
    oracle = dimino(G.elements[G.gen_ids], order=n)
    assert G.elements.dtype == oracle.elements.dtype == dtype
    assert np.array_equal(G.elements, oracle.elements[lex_order(oracle.elements, oracle.base)])
    assert np.array_equal(G.elements, (np.arange(n)[:, None] + np.arange(n)) % n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(
    st.permutations(list(range(d))).map(point_row), min_size=1, max_size=6)))
def test_random_closures_match_dimino(generators):
    # repeats and products of earlier rows too, which both closures drop
    rows = np.array(generators + [generators[0]] + [generators[-1][generators[0]]])
    assert_chain_matches_dimino(rows, None)


@pytest.mark.parametrize("name", CATALOG + ["pgl(3,4)", "autpsl34"])
def test_the_chain_enumerates_runs_that_lex_order_keeps(name):
    # level 0 sits at z, the least point a generator moves, so G fixes every
    # point below z; its rows go in the order of their images of z, so the
    # elements are |U_0| runs of |G|/|U_0| rows, one image of z each, rising,
    # and the lex order maps each run onto itself
    G = catalog.resolve(name)
    rows = G.elements[G.gen_ids]
    chain, elements = chain_elements(rows, G.order)
    moved = np.flatnonzero(np.any(rows != np.arange(G.degree), axis=0))
    if not moved.size:  # the trivial group: no level, one run
        assert chain.levels == [] and (chain.base, chain.run) == ([0], 1)
        return
    z, level = int(moved[0]), chain.levels[0]
    assert chain.base[0] == level.point == z and chain.run * len(level.U) == G.order
    assert np.array_equal(G.elements[:, :z], np.broadcast_to(np.arange(z), (G.order, z)))
    images = elements[:, z].reshape(-1, chain.run)
    assert np.all(images == images[:, :1]) and np.all(np.diff(images[:, 0].astype(int)) > 0)
    runs = lex_order(elements, chain.base).reshape(-1, chain.run) // chain.run
    assert np.array_equal(runs, np.broadcast_to(np.arange(len(runs))[:, None], runs.shape))


@pytest.mark.parametrize("name", CATALOG + ["pgl(3,4)", "autpsl34"])
def test_a_level_inverts_the_rows_it_adds(name):
    # each level's inverse rows are scattered from its rows: u^-1 = argsort(u)
    G = catalog.resolve(name)
    for level in schreier_sims(G.elements[G.gen_ids], order=G.order).levels:
        assert len(level.inv) == len(level.U) == np.count_nonzero(level.pos >= 0)
        assert np.array_equal(level.inv, np.argsort(level.U, axis=1))


@pytest.mark.parametrize("name", CATALOG)
def test_the_chain_gives_the_order_and_builds_no_element(monkeypatch, name):
    # `schreier_sims` reads |G| off its orbit lengths; only `close_group` enumerates
    G = catalog.resolve(name)
    rows = G.elements[G.gen_ids]
    closed = close_group(rows)
    monkeypatch.setattr(permcore, "_enumerate", lambda *a: pytest.fail("enumerated"))
    assert schreier_sims(rows).order == closed.order == G.order


def test_int64_rows_key_as_point_rows():
    G = catalog.sym(4)
    rows, find = G.elements[:3], G._index.find
    assert find(rows.astype(np.int64)).tolist() == find(rows).tolist() == [0, 1, 2]


def test_c2_14_needs_a_14_point_base():
    # radix 29 at degree 28: 29^14 > 2^64, so on 14 base points the uint64 fold wraps
    gens = elementary_abelian_2(14)
    gens.append(gens[0][gens[1]])  # redundant: dropped
    G = close_group(gens)
    assert G.order == 2 ** 14 and len(G.base) == 14
    assert_matches_oracle(G, gens)
    assert_kept_generators(G, gens)
    assert_chain_matches_dimino(np.array(gens), G.order)  # the oracle's keys wrap too


@pytest.mark.parametrize("name, base", [
    ("autpsl34", [0, 1, 5, 2, 6, 3]), ("pgu(3,4)", [0, 1, 2, 5]), ("pgl(3,4)", [0, 1, 5, 2, 6]),
    ("pgu(4,2)", [0, 1, 9, 3]), ("alt7", [0, 2, 1, 3, 4]),
])
def test_the_exact_fold_keeps_the_byte_key_bases(name, base):
    # the base is the stabilizer chain's: first the least point a generator
    # moves (0 here), then each point the least one its strong generator
    # moves; byte-string keys, which never collide, kept it, and the fold is
    # exact on it too: radix^|base| fits the 64 - p bits beside a position,
    # so no collision grows it
    G = catalog.resolve(name)
    assert schreier_sims(G.elements[G.gen_ids]).base == base == G.base
    assert (G.degree | 1) ** len(base) <= 2 ** (64 - (G.order - 1).bit_length())


def assert_byte_order(rows, base):
    """`lex_order` on `base` sorts `rows` as their full-row byte strings do."""
    assert np.array_equal(lex_order(rows, base), np.argsort(encode_rows(rows)))


@pytest.mark.parametrize("name", CATALOG)
def test_close_group_sorts_as_the_byte_keys(name):
    G = catalog.resolve(name)
    chain, elements = chain_elements(G.elements[G.gen_ids], None)
    assert_byte_order(elements, chain.base)
    in_byte_order = elements[np.argsort(encode_rows(elements))]
    assert G.elements.tobytes() == in_byte_order.tobytes()


def test_close_group_sorts_the_trivial_group():
    G = close_group(np.empty((0, 3)))
    assert G.elements.tolist() == [[0, 1, 2]] and G.base == [0]
    assert_byte_order(G.elements, G.base)


@pytest.mark.slow
def test_close_group_sorts_autpsl34_as_the_byte_keys():
    G = catalog.resolve("autpsl34")
    keys = encode_rows(G.elements)
    assert np.all(keys[:-1] < keys[1:])


def test_lex_order_reads_a_base_that_is_not_a_prefix():
    # pgu(4,2) tells its elements apart on [0, 1, 9, 3]: the order is read
    # off points 0..9, of which 2 and 4..8 are off the base, in two packed
    # passes (radix 45, 64 - 15 bits: 8 points a pass)
    G = catalog.resolve("pgu(4,2)")
    assert G.base == [0, 1, 9, 3]
    rows = G.elements[np.random.default_rng(0).permutation(G.order)]
    assert_byte_order(rows, G.base)
    assert np.array_equal(lex_order(rows, G.base), lexsort_order(rows, G.base))
    assert np.array_equal(rows[lex_order(rows, G.base)], G.elements)


def lexsort_order(rows, base):
    """The order `lex_order` gave before its packed sorts: `np.lexsort` of the
    points 0..max(base), the last point's key first."""
    return np.lexsort(rows[:, max(base)::-1].T)


def distinct_rows(degree, n, stop, seed):
    """n random rows of `degree` entries below `degree`, distinct on the first
    `stop` <= degree, in a random order; drawn as distinct codes while the
    prefixes are few."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, degree, (n, degree)).astype(point_dtype(degree))
    if degree ** stop <= 2 ** 20:
        codes = rng.choice(degree ** stop, n, replace=False)
        rows[:, :stop] = codes[:, None] // degree ** np.arange(stop - 1, -1, -1) % degree
    assert len(np.unique(rows[:, :stop], axis=0)) == n
    return rows


@pytest.mark.parametrize("degree, n, stop", [
    # radix degree|1, p the bits of n - 1: a pass takes the most points whose
    # fold fits 64 - p bits, which are all of them here
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 4, 2), (8, 16, 2), (8, 17, 2), (8, 64, 2), (8, 65, 3),
    (1000, 1024, 5), (1000, 1025, 5),  # 1001^5 < 2^53 < 1001^6: a pass takes 5 points
    (1000, 1024, 8), (1000, 1025, 8),  # two passes
    (1000, 1025, 16), (1000, 4097, 40),  # four and eight passes
])
def test_lex_order_matches_lexsort(degree, n, stop):
    rows = distinct_rows(degree, n, stop, seed=n + stop)
    base = list(range(stop))[::-1]
    assert np.array_equal(lex_order(rows, base), lexsort_order(rows, base))
    assert np.array_equal(lex_order(rows, [stop - 1]), lexsort_order(rows, [stop - 1]))


def test_base_agreement_does_not_make_a_member():
    G = catalog.alt(5)
    a, b = sorted(set(range(5)) - set(G.base))[:2]  # (4 5), 1-based, fixes the base
    t = np.arange(5)
    t[a], t[b] = b, a
    outside = G.elements[:, t]  # g*(a b): odd, same base images as g
    assert np.array_equal(outside[:, G.base], G.elements[:, G.base])
    for row in outside:
        with pytest.raises(GroupError):
            G.ids_of(row[None, :])
        assert G._index.find(row[None, :])[0] == -1
    with pytest.raises(GroupError):
        G.ids_of(np.concatenate([G.elements, outside[:1]]))


REAL_FOLD = _RowIndex._fold


def fold_one_as_zero(index, images):
    """The real fold with image 1 of the first base point keyed as image 0: two
    permutations collide while they differ on the base only there."""
    images = images.copy()
    images[images[:, 0] == 1, 0] = 0
    return REAL_FOLD(index, images)


def colliding_fold(src, dst):
    """The real fold, except that the base images `src` get the key of `dst`."""
    src, dst = (np.asarray([v]) for v in (src, dst))

    def fold(index, images):
        keys = REAL_FOLD(index, images)
        if images.shape[1] == src.shape[1]:
            keys[np.all(images == src, axis=1)] = REAL_FOLD(index, dst)[0]
        return keys
    return fold


@pytest.mark.parametrize("name, off_base", [("psl(2,8)", False), ("sym4", True)])
def test_a_key_collision_grows_the_base(monkeypatch, name, off_base):
    """Two elements with distinct base images are given one key: keying them
    grows the base by the first point off it where they differ (or, when they
    agree off it, by the first point off it), and a group built on the old
    base does the same instead of raising."""
    G = catalog.resolve(name)
    E, free = G.elements, [p for p in range(G.degree) if p not in G.base]
    x, y = next((i, j) for i, j in itertools.combinations(range(1, G.order), 2)
                if np.array_equal(E[i, free], E[j, free]) == off_base)
    grown = G.base + [next((p for p in free if E[x, p] != E[y, p]), free[0])]
    table = G.cayley()  # G's index is keyed by the real fold
    monkeypatch.setattr(_RowIndex, "_fold", colliding_fold(E[x, G.base], E[y, G.base]))
    index = _RowIndex(E, base=G.base)
    assert index.base == grown and index.rows.tobytes() == E.tobytes()
    ids = np.arange(G.order)
    assert np.array_equal(index.find(E), ids)
    assert np.array_equal(index.locate(E[:, grown]), ids)
    H = FiniteGroup(E, G.base, E[G.gen_ids])
    assert H.base == grown
    assert_matches_oracle(H, list(G.elements[G.gen_ids]))
    assert np.array_equal(H.cayley(), table)


def test_a_constant_fold_raises_once_the_base_holds_every_point(monkeypatch):
    monkeypatch.setattr(_RowIndex, "_fold", lambda index, images: np.zeros(len(images), np.uint64))
    every = np.array(list(itertools.permutations(range(3))), dtype=point_dtype(3))
    # [0, 1] tells the rows apart; two of them sharing a key grow it by point 2
    with pytest.raises(GroupError, match=r"the base \[0, 1, 2\], which holds every point"):
        _RowIndex(every, base=[0, 1])
    with pytest.raises(GroupError, match="holds every point"):
        _RowIndex(every, base=[2, 0, 1])


def check_row_index_against_a_dict(data):
    """Distinct random rows keyed on a base of all points but one (which tells
    any two permutations apart), in a drawn order: `find` gives every stored
    row its position and -1 to every other permutation, int64 rows the same
    as point rows, and leaves the base as it was."""
    d = data.draw(st.integers(2, 6))
    every = np.array(list(itertools.permutations(range(d))), dtype=point_dtype(d))
    picks = data.draw(st.lists(st.integers(0, len(every) - 1), min_size=1, unique=True))
    base = data.draw(st.permutations(range(d)))[:d - 1]
    index = _RowIndex(every[picks], base=base)
    base, position = list(index.base), {every[k].tobytes(): i for i, k in enumerate(picks)}
    expected = [position.get(row.tobytes(), -1) for row in every]
    assert index.find(every).tolist() == index.find(every.astype(np.int64)).tolist() == expected
    assert index.base == base


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_index_matches_a_dict_of_row_bytes(data):
    check_row_index_against_a_dict(data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_index_matches_a_dict_of_row_bytes_under_a_colliding_fold(data):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_RowIndex, "_fold", fold_one_as_zero)
        check_row_index_against_a_dict(data)
