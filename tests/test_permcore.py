import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autorbit import catalog
from autorbit import permcore as pc
from autorbit.permcore import cycle_decompose, parse_cycles
from closure_oracle import element_order
from subgroup_oracle import (InvalidAutomorphism, derived_series, derived_subgroup,
                             is_characteristic, is_solvable)


def perm_strategy(max_degree=8):
    return st.integers(2, max_degree).flatmap(
        lambda d: st.permutations(list(range(d))).map(np.array))


def test_compose_identity_and_inverse():
    q = parse_cycles("(1 2 3)", 4)
    e = np.arange(4)
    assert np.array_equal(e[q], q)
    assert np.array_equal(q[np.argsort(q)], e)


def test_compose_worked_example():
    # (0 1) after (1 2) maps 0->1, 1->... = the 3-cycle (0 1 2), 0-based
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    assert p[q].tolist() == [1, 2, 0]


@given(perm_strategy())
def test_inverse_roundtrip(p):
    assert np.array_equal(p[np.argsort(p)], np.arange(p.size))
    assert np.array_equal(np.argsort(p)[p], np.arange(p.size))


@given(perm_strategy())
def test_cycle_decompose_roundtrip(p):
    cycles = cycle_decompose(p)
    # supports partition the points, minimal-first rotation, sorted by minimum
    pts = sorted(x for c in cycles for x in c)
    assert pts == list(range(p.size))
    assert all(c[0] == min(c) for c in cycles)
    assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
    # the cycles rebuild the row, and their lengths are its cycle_lengths
    rebuilt, lengths = np.arange(p.size), np.zeros(p.size, dtype=np.int64)
    for cyc in cycles:
        rebuilt[list(cyc)], lengths[list(cyc)] = np.roll(cyc, -1), len(cyc)
    assert np.array_equal(rebuilt, p)
    assert np.array_equal(pc.cycle_lengths(p[None, :])[0], lengths)


@given(st.integers(1, 12).flatmap(
    lambda d: st.lists(st.permutations(list(range(d))), min_size=1, max_size=5)))
def test_cycle_lengths_match_cycle_decompose(rows):
    lengths = pc.cycle_lengths(np.array(rows))
    for row, got in zip(rows, lengths):
        want = [0] * len(row)
        for cyc in cycle_decompose(row):
            for x in cyc:
                want[x] = len(cyc)
        assert got.tolist() == want


def test_order_of_the_prime_cycles_permutation_is_exact():
    # one cycle per prime below 110, degree 1480: the order overflows int64
    primes = [q for q in range(2, 110) if all(q % d for d in range(2, q))]
    images, start = [], 0
    for p in primes:
        images += [start + (i + 1) % p for i in range(p)]
        start += p
    order = element_order(np.array(images))
    assert start == 1480 and type(order) is int
    assert order == math.prod(primes)


def test_cycle_decompose_examples():
    assert cycle_decompose(np.arange(3)) == ((0,), (1,), (2,))
    c = parse_cycles("(1 2 3)", 3)
    assert cycle_decompose(c) == ((0, 1, 2),)
    t = parse_cycles("(2 3)", 4)
    assert cycle_decompose(t) == ((0,), (1, 2), (3,))


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1 2) junk", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 1)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 1)", 3)  # 1-based points


MALFORMED_GENERATORS = [  # (check, input, the message it raises)
    (pc._check_bijection, np.array([[0, 1], [1, 0]]), "images must be a non-empty 1-d sequence"),
    (pc._check_bijection, [], "images must be a non-empty 1-d sequence"),
    (pc._check_bijection, [0, 5, 1], "values are not points in 0..2"),
    (pc._check_bijection, [0, 0, 1], "images is not a bijection on {0,...,degree-1}"),
    (lambda text: parse_cycles(text, 4), "(1 9)", "point out of range 1..4 in '(1 9)'"),
    (lambda text: parse_cycles(text, 4), "(1 1)", "repeated point in cycle (1 1) of '(1 1)'"),
    (lambda text: parse_cycles(text, 3), "(1 2)(1 3)",
     "images is not a bijection on {0,...,degree-1}"),  # a point repeated across cycles
    (lambda text: parse_cycles(text, 3), "(1 2) x", "unparsed text in cycle string '(1 2) x'"),
]


@pytest.mark.parametrize("check, images, message", MALFORMED_GENERATORS)
def test_malformed_generators_keep_their_messages(check, images, message):
    with pytest.raises(ValueError) as exc:
        check(images)
    assert str(exc.value) == message


def test_check_bijection_returns_the_row_as_points():
    row = pc._check_bijection([2, 0, 1])
    assert row.dtype == pc.point_dtype(3) == np.uint8 and row.tolist() == [2, 0, 1]
    assert np.array_equal(parse_cycles("(1 3 2)", 3), row)
    assert parse_cycles("()", 2).tolist() == parse_cycles("", 2).tolist() == [0, 1]
    wide = pc._check_bijection(list(range(256, -1, -1)))  # 257 points take two bytes each
    assert wide.dtype == pc.point_dtype(257) == np.uint16 and wide[0] == 256


def test_point_255_survives_a_one_byte_row():
    row = parse_cycles("(1 256)", 256)
    assert row.dtype == np.uint8 and (int(row[0]), int(row[255])) == (255, 0)
    cycles = cycle_decompose(row)
    assert cycles == ((0, 255),) + tuple((x,) for x in range(1, 255))
    text = "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)
    assert np.array_equal(parse_cycles(text, 256), row)


def test_values_the_point_cast_would_change_are_rejected():
    S3 = catalog.sym(3)
    with pytest.raises(pc.GroupError):  # 65537 wraps to 1 as uint8 or uint16: (1 2)
        S3.ids_of(np.array([[65537, 0, 2]]))
    C256 = catalog.cyclic(256)
    shift = np.roll(np.arange(256), -1)  # the 256-cycle, a member
    assert C256.elements.dtype == np.uint8 and C256.ids_of(shift[None]).tolist() == [1]
    with pytest.raises(pc.GroupError):  # 256 wraps to 0 as uint8: the 256-cycle
        C256.ids_of(np.where(shift == 0, 256, shift)[None])
    for images in (np.array([65537, 0]), [1.7, 0], [-65535, 0]):  # each casts to (1 2)
        with pytest.raises(ValueError):
            pc._check_bijection(images)
    assert S3.ids_of(np.array([[1, 0, 2]])).tolist() == S3.ids_of(
        np.array([[1, 0, 2]], dtype=np.uint16)).tolist()
    assert np.array_equal(pc._check_bijection(np.array([1, 0], dtype=np.uint8)),
                          pc._check_bijection([1, 0]))


def test_close_group_empty_and_small():
    triv = pc.close_group(np.empty((0, 3)))
    assert triv.order == 1
    s3 = pc.close_group([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
    assert s3.order == 6
    assert catalog.alt(5).order == 60


def test_close_group_limit():
    with pytest.raises(pc.ClosureLimitExceeded):
        pc.close_group([parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)],
                       limit=10)


def test_a_group_needs_a_base_that_tells_its_elements_apart():
    S3 = catalog.sym(3)
    with pytest.raises(pc.GroupError):  # (1 2) and (1 2 3) both send point 0 to 1
        pc.FiniteGroup(S3.elements, [0], S3.elements[S3.gen_ids])
    G = pc.FiniteGroup(S3.elements, [0, 1], S3.elements[S3.gen_ids])
    assert G.ids_of(S3.elements).tolist() == list(range(6))


def test_a_group_refuses_a_generator_outside_its_elements():
    A3 = catalog.alt(3)
    G = pc.FiniteGroup(A3.elements, A3.base, A3.elements[::-1])
    assert G.gen_ids.dtype == np.int64 and G.gen_ids.tolist() == [2, 1, 0]  # in the given order
    odd = np.array([[1, 0, 2]])  # (1 2)
    for rows in (odd, np.concatenate([A3.elements[A3.gen_ids], odd])):
        with pytest.raises(pc.GroupError, match="not in group"):
            pc.FiniteGroup(A3.elements, A3.base, rows)


def test_identity_is_element_zero():
    for G in (catalog.sym(4), catalog.cyclic(7), catalog.alt(4)):
        assert np.array_equal(G.elements[0], np.arange(G.degree))


def test_conjugacy_classes_and_class_equation():
    s3 = catalog.sym(3)
    assert sorted(pc.conjugacy_classes(s3).sizes) == [1, 2, 3]
    for G in (catalog.sym(4), catalog.alt(5), catalog.cyclic(12)):
        table = pc.conjugacy_classes(G)
        assert sum(table.sizes) == G.order
        assert all(G.order % s == 0 for s in table.sizes)
        assert pc.mcs(G) * max(table.sizes) == G.order


def test_abelian_classes_are_singletons():
    G = catalog.cyclic(9)
    assert pc.conjugacy_classes(G).sizes == [1] * 9


def test_mcs_examples():
    assert pc.mcs(catalog.sym(5)) == 4
    c8 = catalog.cyclic(8)
    assert pc.mcs(c8) == 8  # abelian: all centralizers are the whole group
    s5 = catalog.sym(5)
    assert max(pc.conjugacy_classes(s5).sizes) == 30


def test_derived_series_and_solvability():
    assert is_solvable(catalog.cyclic(10))
    series = derived_series(catalog.sym(4))
    assert [s.size for s in series] == [24, 12, 4, 1]
    a5 = catalog.alt(5)
    assert not is_solvable(a5)
    assert derived_series(a5)[-1].size == 60  # perfect


def test_quotient_group():
    s3 = catalog.sym(3)
    a3 = derived_subgroup(s3)
    q = pc.quotient_group(s3, a3).group
    assert q.order == 2

    es = catalog.extraspecial_p3_exponent_p(3)
    qq = pc.quotient_group(es, es.center_ids()).group
    assert qq.order == 9
    assert all(s == 1 for s in pc.conjugacy_classes(qq).sizes)  # abelian

    triv = np.array([0])
    iso = pc.quotient_group(s3, triv).group
    assert iso.order == 6


def test_quotient_rejects_non_normal():
    s3 = catalog.sym(3)
    sub = s3.subgroup_closure([s3.id_of(parse_cycles("(1 2)", 3))])
    assert sub.size == 2
    with pytest.raises(pc.NotNormal):
        pc.quotient_group(s3, sub)


def test_is_characteristic():
    from autorbit.autgrp import automorphism_group
    s4 = catalog.sym(4)
    auts = automorphism_group(s4)
    gens = auts.elements[auts.gen_ids]
    assert is_characteristic(s4, derived_subgroup(s4), gens)
    assert is_characteristic(s4, s4.center_ids(), gens)
    # a point stabilizer is not even normal
    stab = np.flatnonzero(s4.elements[:, 0] == 0)
    sub = s4.subgroup_closure(stab)
    assert not pc.is_normal(s4, sub)
    if not is_characteristic(s4, sub, gens):
        pass  # expected: some automorphism moves it
    else:
        pytest.fail("point stabilizer reported characteristic")


def test_is_characteristic_rejects_bad_map():
    s3 = catalog.sym(3)
    bogus = np.array([0, 2, 1, 3, 4, 5])  # a transposition of ids, not an automorphism
    if pc.validate_automorphism(s3, bogus):
        pytest.fail("bogus map validated")
    with pytest.raises(InvalidAutomorphism):
        is_characteristic(s3, np.array([0]), [bogus])


def test_group_spec_file_roundtrip(tmp_path):
    spec = {"name": "klein", "degree": 4,
            "generators": ["(1 2)(3 4)", [2, 3, 0, 1]]}
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(spec))
    G = pc.load_group_file(str(path))
    assert G.order == 4 and G.name == "klein"
    assert is_solvable(G)


def test_center():
    assert catalog.sym(3).center_ids().tolist() == [0]
    assert catalog.cyclic(6).center_ids().size == 6
    assert catalog.extraspecial_p3_exponent_p(3).center_ids().size == 3


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.lists(
    st.permutations(list(range(d))).map(np.array), max_size=4).map(lambda ms: (d, ms))))
def test_sweep_reaches_each_orbit_once(case):
    degree, maps = case
    parts, part_of = pc.orbits(maps, degree)
    for x in range(degree):
        seen = np.zeros(degree, dtype=bool)
        reached = [x]
        for k, src, new in pc.sweep([x], lambda f: (m[f] for m in maps), seen):
            assert np.array_equal(maps[k][src], new)
            reached.extend(new.tolist())
        assert len(reached) == len(set(reached))
        assert sorted(reached) == parts[part_of[x]].tolist()
        assert np.flatnonzero(seen).tolist() == sorted(reached)


def _bfs_levels(maps, start):
    """The plain breadth-first closure of `start`: its levels, as sets."""
    levels, seen = [set(start)], set(start)
    while levels[-1]:
        level = {int(m[x]) for x in levels[-1] for m in maps} - seen
        seen |= level
        levels.append(level)
    return levels[:-1]


@pytest.mark.parametrize("seeds", [2, 40_000])
def test_sweep_past_one_block(seeds):
    # 2^17 points under two random permutations, each fixing the points'
    # parity: the points 0 and 1 close to all of them, and 40,000 even seeds
    # to the even points; the levels, and the 40,000 seeds too, span several
    # blocks
    n, block = 1 << 17, pc._BLOCK_CELLS >> 6
    rng = np.random.default_rng(seeds)
    maps = []
    for _ in range(2):
        m = np.empty(n, dtype=np.int64)
        for r in range(2):
            m[r::2] = rng.permutation(np.arange(r, n, 2))
        maps.append(m)
    start = (np.array([0, 1]) if seeds == 2
             else rng.choice(np.arange(0, n, 2), seeds, replace=False))
    levels = _bfs_levels(maps, start.tolist())
    assert max(len(level) for level in levels) > block

    seen, blocks = np.zeros(n, dtype=bool), []
    reached = set(start.tolist())
    yielded = []
    for k, src, found in pc.sweep(start, lambda f: blocks.append(f.size) or (m[f] for m in maps),
                                  seen):
        assert np.array_equal(maps[k][src], found)
        assert reached.issuperset(src.tolist())  # seeded or yielded before
        reached.update(found.tolist())
        yielded.extend(found.tolist())
    closure = set().union(*levels)
    assert np.array_equal(seen, np.isin(np.arange(n), list(closure)))
    assert len(yielded) == len(set(yielded)) == len(closure) - seeds
    assert set(yielded) == closure - set(start.tolist())
    assert max(blocks) <= block and sum(blocks) == len(closure)


def test_size_text_bounds_long_numbers():
    from autorbit.permcore import size_text
    assert size_text(117050572800) == "117050572800"
    assert size_text(10 ** 30 - 1) == "9" * 30
    assert size_text(10 ** 30) == "about 10^30.0"
    assert size_text(120 ** 2081 * 2081) == "about 10^4330.1"  # str() refuses it
