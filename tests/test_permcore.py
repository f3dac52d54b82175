import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autorbit import catalog
from autorbit import permcore as pc
from autorbit.permcore import Permutation, compose, cycle_decompose, parse_cycles


def perm_strategy(max_degree=8):
    return st.integers(2, max_degree).flatmap(
        lambda d: st.permutations(list(range(d))).map(Permutation))


def test_compose_identity_and_inverse():
    q = parse_cycles("(1 2 3)", 4)
    e = Permutation.identity(4)
    assert compose(e, q) == q
    assert compose(q, q.inverse()) == e


def test_compose_worked_example():
    # (0 1) after (1 2) maps 0->1, 1->... = the 3-cycle (0 1 2), 0-based
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    r = compose(p, q)
    assert [r(x) for x in range(3)] == [1, 2, 0]


def test_compose_degree_mismatch():
    with pytest.raises(pc.DegreeMismatch):
        compose(Permutation.identity(3), Permutation.identity(4))


@given(perm_strategy())
def test_inverse_roundtrip(p):
    assert compose(p, p.inverse()) == Permutation.identity(p.degree)
    assert compose(p.inverse(), p) == Permutation.identity(p.degree)


@given(perm_strategy())
def test_cycle_decompose_roundtrip(p):
    cs = cycle_decompose(p)
    # supports partition the points, minimal-first rotation, sorted by minimum
    pts = sorted(x for c in cs.cycles for x in c)
    assert pts == list(range(p.degree))
    assert all(c[0] == min(c) for c in cs.cycles)
    assert [c[0] for c in cs.cycles] == sorted(c[0] for c in cs.cycles)
    assert cs.to_permutation() == p


def test_cycle_decompose_examples():
    e3 = Permutation.identity(3)
    assert cycle_decompose(e3).cycles == ((0,), (1,), (2,))
    c = parse_cycles("(1 2 3)", 3)
    assert cycle_decompose(c).cycles == ((0, 1, 2),)
    t = parse_cycles("(2 3)", 4)
    assert cycle_decompose(t).cycles == ((0,), (1, 2), (3,))


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1 2) junk", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 1)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 1)", 3)  # 1-based points


def test_close_group_empty_and_small():
    triv = pc.close_group([], degree=3)
    assert triv.order == 1
    s3 = pc.close_group([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
    assert s3.order == 6
    assert catalog.alt(5).order == 60


def test_close_group_limit():
    with pytest.raises(pc.ClosureLimitExceeded):
        pc.close_group([parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)],
                       limit=10)


def test_identity_is_element_zero():
    for G in (catalog.sym(4), catalog.cyclic(7), catalog.alt(4)):
        assert G.perm(0).is_identity()


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
    assert pc.is_solvable(catalog.cyclic(10))
    series = pc.derived_series(catalog.sym(4))
    assert [s.size for s in series] == [24, 12, 4, 1]
    a5 = catalog.alt(5)
    assert not pc.is_solvable(a5)
    assert pc.derived_series(a5)[-1].size == 60  # perfect


def test_quotient_group():
    s3 = catalog.sym(3)
    a3 = s3.derived_subgroup_ids()
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
    gens = [g.images for g in auts.group.generators]
    assert pc.is_characteristic(s4, s4.derived_subgroup_ids(), gens)
    assert pc.is_characteristic(s4, s4.center_ids(), gens)
    # a point stabilizer is not even normal
    stab = [i for i in range(24) if s4.perm(i)(0) == 0]
    sub = s4.subgroup_closure(stab)
    assert not pc.is_normal(s4, sub)
    if not pc.is_characteristic(s4, sub, gens):
        pass  # expected: some automorphism moves it
    else:
        pytest.fail("point stabilizer reported characteristic")


def test_is_characteristic_rejects_bad_map():
    s3 = catalog.sym(3)
    bogus = np.array([0, 2, 1, 3, 4, 5])  # a transposition of ids, not an automorphism
    if pc.validate_automorphism(s3, bogus):
        pytest.fail("bogus map validated")
    with pytest.raises(pc.InvalidAutomorphism):
        pc.is_characteristic(s3, np.array([0]), [bogus])


def test_group_spec_file_roundtrip(tmp_path):
    spec = {"name": "klein", "degree": 4,
            "generators": ["(1 2)(3 4)", [2, 3, 0, 1]]}
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(spec))
    G = pc.load_group_file(str(path))
    assert G.order == 4 and G.name == "klein"
    assert pc.is_solvable(G)


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
