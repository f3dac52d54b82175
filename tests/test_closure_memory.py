"""Memory peaks of the closure, the Aut search, the class routine and the hp
sweep, with the routines they replaced kept here as oracles: the full
`rows[lex_order(...)]` gather for the in-place `sort_rows`, which gathers
whole rows a block of the chain's runs at a time (the lex order keeps each
run), min-label propagation over all the maps at once for `orbits`, which
merges one map at a time, and the stable int64 argsort that numbered a class
table's members before a narrow one did.  tracemalloc counts numpy's
allocations, so the peaks are deterministic."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from autorbit import catalog, cli, stypes, wreath
from autorbit.autgrp import automorphism_group
from autorbit.permcore import (ClosureLimitExceeded, ConjClassTable, FiniteGroup, ResourceLimit,
                               _enumerate, close_group, conjugacy_classes, lex_order, orbits,
                               parse_cycles, schreier_sims, sort_rows)
from test_catalog import _covered
from test_permcore_oracle import CATALOG
import wreath_oracle


def traced_peak(build):
    """(build(), the peak of traced allocations while it ran)."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def all_maps_orbit_labels(maps, n):
    """Each point's orbit, numbered by least point: every point takes the
    least label along all the maps, then its label's label, until no label
    moves (the propagation `orbits` used before it took one map at a time)."""
    maps, label = list(maps), np.arange(n)
    while True:
        new = label
        for m in maps:
            new = np.minimum(new, new[m])
        new = new[new]
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new


def uint16_bytes(G):
    """The bytes of G's element array in uint16 rows, the type every group's
    rows took before rows of at most 256 points became uint8."""
    return 2 * G.elements.size


# Peaks in bytes, each near the one measured in uint8 rows: pgl(3,4) 2,543,180,
# autpsl34 15,244,376 and pgu(3,4) 5,369,536 (3,813,512, 25,405,688 and
# 9,426,056 in uint16 rows).  The index's uint64 keys do not narrow with the
# rows, so PGL_3(4)'s peak is 2.0 uint8 arrays where it was 1.5 uint16.
CLOSE_GROUP_PEAKS = {"pgl(3,4)": 2_600_000, "autpsl34": 15_500_000, "pgu(3,4)": 5_500_000}


@pytest.mark.parametrize("name", ["pgl(3,4)", "autpsl34"])
def test_close_group_peaks_near_the_array_it_returns(name):
    G = catalog.resolve(name)
    H, peak = traced_peak(lambda: close_group(G.elements[G.gen_ids], order=G.order))
    assert H.elements.tobytes() == G.elements.tobytes() and H.base == G.base
    assert peak <= CLOSE_GROUP_PEAKS[name] <= 1.6 * uint16_bytes(H)


def test_close_group_of_pgu34_peaks_within_a_quarter_over_its_array():
    # PGU_3(4), 62,400 x 65 points, where paper-table's peak RSS is set: the
    # sort's temporaries are a block of runs each, not a third of the columns
    # (1.40 uint16 arrays when it copied a third at a time); 1.32 uint8 arrays
    G = catalog.resolve("pgu(3,4)")
    H, peak = traced_peak(lambda: close_group(G.elements[G.gen_ids], order=G.order))
    assert H.elements.tobytes() == G.elements.tobytes()
    assert peak <= CLOSE_GROUP_PEAKS["pgu(3,4)"] <= 1.25 * uint16_bytes(H)


@pytest.mark.parametrize("known", [True, False], ids=["order", "no-order"])
def test_close_group_peaks_alike_without_the_order(known):
    # the order comes off the stabilizer chain, so the element array is
    # allocated once at its size either way: Aut(PSL_3(4)) from its rows
    *_, rows, order = catalog._pgammal(3, 4)
    H, peak = traced_peak(lambda: close_group(rows, order=order if known else None))
    assert H.order == order and peak <= CLOSE_GROUP_PEAKS["autpsl34"] <= 1.5 * uint16_bytes(H)


def test_aut_search_closes_once_at_its_order():
    # with G's tables built, the search's peak is its one sized closure and
    # the element array holds no spare buffer.  numpy.ma, which np.unique
    # imports on its first call in the process, is imported before the trace:
    # its 1.2 MB of module objects are no part of the search.  The peak,
    # 7,870,877 B, is the search's own: A's rows (125 points) narrowed to uint8
    import numpy.ma  # noqa: F401
    G = catalog.resolve("extraspecial(5)")
    G.cayley(), G.element_orders(), conjugacy_classes(G)
    A, peak = traced_peak(lambda: automorphism_group(G))
    assert A.order == 12000 and A.elements.dtype == np.uint8
    assert A.elements.base is None or A.elements.base.nbytes == A.elements.nbytes
    assert peak <= 8_000_000 <= 3 * uint16_bytes(A)


@pytest.mark.parametrize("numbered", [False, True])
def test_coset_classes_peak_under_two_element_arrays_of_s(numbered):
    # no step lifts all of PSL_3(5) to its 31 points and 31 lines, which alone
    # is twice its array: a lifted line column is built once, over S
    built = catalog.almost_simple("psl(3,5)")
    table, peak = traced_peak(lambda: stypes.coset_classes(built, numbered=numbered))
    assert max(table.rho) == Fraction(1, 4)
    assert peak < 2 * built.group.elements.nbytes


@pytest.mark.parametrize("name", ["pgl(3,4)", "autpsl34"])
def test_classes_peak_the_same_for_any_number_of_generators(name):
    G, rng = catalog.resolve(name), np.random.default_rng(0)
    extra = rng.choice(G.order, 8, replace=False)
    for gen_ids in (G.gen_ids, np.concatenate([G.gen_ids, extra])):
        F = FiniteGroup(G.elements, G.base, G.elements[gen_ids])
        table, peak = traced_peak(lambda: conjugacy_classes(F))
        assert np.array_equal(table.class_of, conjugacy_classes(G).class_of)
        assert peak <= 6 * 8 * G.order


def test_classes_of_autpsl34_peak_within_four_key_arrays():
    # a whole-group map is its keys and their sort order, and each map is
    # dropped before the next is built
    G = catalog.resolve("autpsl34")
    F = FiniteGroup(G.elements, G.base, G.elements[G.gen_ids])
    table, peak = traced_peak(lambda: conjugacy_classes(F))
    assert len(table.classes) == 28
    assert peak <= 4 * 8 * G.order


@pytest.mark.parametrize("order", [None, 4])
def test_close_group_past_a_block_of_points(order):
    # degree 40000: a block of cells holds 26 rows, and a coset batch still a row or more
    gens = [parse_cycles("(1 2)", 40000), parse_cycles("(3 4)", 40000)]
    G = close_group(gens, order=order)
    assert G.order == 4 and np.array_equal(G.elements[:, 4:], np.tile(np.arange(4, 40000), (4, 1)))
    assert list(map(tuple, G.elements[:, :4].tolist())) == [
        (0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2)]


def test_the_closure_limit_raises_before_allocating():
    # |Sym(12)| = 479001600: the message the growing closure raised, before
    # anything near the element array is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ClosureLimitExceeded, match="^closure exceeded limit 2000000$"):
            catalog.sym(12)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_a_file_group_past_the_limit_stops_before_its_elements(tmp_path, capsys):
    # Sym(12), 479,001,600 elements, from two generators: the chain's orbit
    # lengths pass the limit before any element is built (exit 3)
    path = tmp_path / "sym12.json"
    path.write_text(json.dumps({"name": "sym12", "degree": 12,
                                "generators": ["(1 2)", "(1 2 3 4 5 6 7 8 9 10 11 12)"]}))
    code, peak = traced_peak(lambda: cli.main(["mcs", "--group", f"file:{path}"]))
    assert code == 3 and "closure exceeded limit 2000000" in capsys.readouterr().err
    assert peak < 5 << 20


@pytest.mark.parametrize("kind,d,q", list(_covered()))
def test_sort_rows_is_the_lex_order_gather(kind, d, q):
    # the chain's elements as enumerated, and shuffled within each run: the lex
    # order maps each run onto itself either way
    G = catalog.projective_group(kind, d, q)
    chain = schreier_sims(G.elements[G.gen_ids], order=G.order)
    elements = _enumerate(chain, G.degree)
    within = np.random.default_rng(q).permuted(np.arange(G.order).reshape(-1, chain.run), axis=1)
    for rows in (elements, elements[within.ravel()]):
        expected = rows[lex_order(rows, chain.base)]
        assert (sort_rows(rows, chain.base, chain.run).tobytes() == expected.tobytes()
                == G.elements.tobytes())


def _at_most_2000(name):
    try:
        return catalog.resolve(name, limit=2000).order <= 2000
    except ResourceLimit:
        return False


SMALL_CATALOG = [name for name in dict.fromkeys(CATALOG + [case.id for case in _covered()])
                 if _at_most_2000(name)]


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_orbits_match_the_all_maps_propagation(name):
    G = catalog.resolve(name)
    maps = [G.conjugation_ids(c) for c in G.gen_ids]
    least, orbit_of = orbits(iter(maps), G.order)
    assert np.array_equal(orbit_of, all_maps_orbit_labels(maps, G.order))
    assert_least_points(least, orbit_of)


def assert_least_points(least, orbit_of):
    """`least` holds each orbit's first point, in orbit order, and the labels are int64."""
    numbers, first = np.unique(orbit_of, return_index=True)
    assert orbit_of.dtype == np.int64 and np.array_equal(numbers, np.arange(len(least)))
    assert np.array_equal(least, first)


def int64_numbering(orbit_of):
    """Each orbit's members, ascending: a stable argsort of the int64 orbit ids."""
    members = np.argsort(orbit_of.astype(np.int64), kind="stable")
    return np.split(members, np.cumsum(np.bincount(orbit_of))[:-1])


def _numbering_cases():
    """(maps, n, orbit count or None): 1 point and no map; 300 3-cycles, a
    uint16 sort; 70,000 fixed points, past 16 bits; and three random
    permutations, each of a random third of 2^16 + 5 points."""
    rng, n = np.random.default_rng(0), 2 ** 16 + 5
    cycles, threes = np.arange(900), rng.permutation(900).reshape(300, 3)
    cycles[threes] = np.roll(threes, 1, axis=1)
    thirds = [np.arange(n) for _ in range(3)]
    for m in thirds:
        moved = rng.choice(n, n // 3, replace=False)
        m[moved] = rng.permutation(moved)
    return [pytest.param([], 1, 1, id="one-point"),
            pytest.param([cycles], 900, 300, id="300-orbits"),
            pytest.param([np.arange(70_000)], 70_000, 70_000, id="70000-fixed"),
            pytest.param(thirds, n, None, id="random-2^16+5")]


@pytest.mark.parametrize("maps,n,count", _numbering_cases())
def test_orbits_number_members_as_the_int64_sort(maps, n, count):
    # `orbits` gives least points and labels; the class table built on them
    # lists the members, on demand, by its narrow stable sort
    least, orbit_of = orbits(iter(maps), n)
    assert np.array_equal(orbit_of, all_maps_orbit_labels(maps, n))
    assert_least_points(least, orbit_of)
    assert count in (None, len(least))
    parts = ConjClassTable(least, orbit_of).classes
    expected = int64_numbering(orbit_of)
    assert len(parts) == len(expected)
    assert all(np.array_equal(p, q) for p, q in zip(parts, expected))
    assert all(np.all(p[1:] > p[:-1]) for p in parts)


def test_a_conjugation_map_peaks_within_two_and_a_half_key_arrays():
    # a map sums its keys from the weighted columns g·w, a block of rows at a
    # time, with no block of base images gathered first, and sorts them packed
    # over their positions: on PGL_3(4) it peaks at its keys, the packed sort
    # and a block's gathers, 2.31 key arrays
    G = catalog.resolve("pgl(3,4)")
    for c in G.gen_ids:
        ids, peak = traced_peak(lambda: G.conjugation_ids(c))
        assert np.array_equal(np.sort(ids), np.arange(G.order))
        assert peak <= 2.5 * 8 * G.order


@pytest.mark.parametrize("base,n,top", [("sym3", 4, None), ("alt4", 3, None), ("sym4", 3, None),
                                        ("sym3", 3, [[1, 0, 2]])],
                         ids=["sym3-4", "alt4-3", "sym4-3", "sym3-3-intransitive"])
def test_class_codes_match_the_all_maps_propagation(base, n, top):
    # the maps of every base generator in every coordinate, all at once
    wg = wreath.WreathGroup(catalog.resolve(base), n, top=top)
    conjugators = wreath_oracle.all_coordinate_conjugators(wg)
    maps = list(wg._conjugate_rows(wg._table_rows(np.arange(wg.order)),
                                   wg._conjugation_maps(conjugators)))
    assert np.array_equal(wg.class_codes(), all_maps_orbit_labels(maps, wg.order))


# After `build_hp` frees its 5.18 MB visited mask, glibc raises its mmap
# threshold to 5.18 MB and its trim threshold to twice that, about 10.4 MB:
# arrays below 5.18 MB then come from the heap, and the heap goes back to the
# system only when its free top passes 10.4 MB.  An exhaustive wreath check
# whose heap peaked near 8 MB would stay resident into wreath-bounds' next
# command, where numpy.random's first load adds about 6.6 MB of RSS on top of
# it and sets the workload's peak; near 4 MB, the next command reuses it.  So
# the class routine and the profile labels are held to small multiples of a
# code on Sym4 wr S3 (82,944 codes), where they peak at about 28 and 48 bytes.

def test_class_codes_peak_within_30_bytes_a_code():
    wg = wreath.WreathGroup(catalog.sym(4), 3)
    wg.T, conjugacy_classes(wg.base)
    codes, peak = traced_peak(wg.class_codes)
    assert codes.size == wg.order == 82_944
    assert peak <= 30 * wg.order


def test_profile_labels_peak_within_60_bytes_a_code():
    wg = wreath.WreathGroup(catalog.sym(4), 3)
    wg.T, conjugacy_classes(wg.base)
    labels, peak = traced_peak(lambda: wg.profile_labels(np.arange(wg.order)))
    assert labels.max() == wg.class_codes().max()  # as many profiles as classes
    assert peak <= 60 * wg.order


def test_hp_sweep_peaks_near_its_visited_mask(alt5_aut):
    # the hp orbit of Aut(A5) wr C3, 864,000 of 5,184,000 codes: beside the
    # one-byte-per-code visited mask the sweep holds about one level of codes
    # and a block's temporaries, and the orbit is counted, not listed
    hp, peak = traced_peak(lambda: wreath.build_hp(alt5_aut, 3))
    assert hp.measured_orbit == hp.predicted_orbit == 864_000
    assert peak <= 1.6 * hp.order
