from fractions import Fraction

import numpy as np
import pytest

from autorbit import catalog, permcore as pc, stypes as st, wreath as wr
from autorbit.autgrp import automorphism_group, inner_automorphism_ids
import wreath_oracle as wo
from class_orbits_oracle import closed_with_ids
from stypes_oracle import (GcdViolation, NonAbelianQuotient, coarse_quotient, ct_power_check,
                           ct_set, h_value_direct)
from subgroup_oracle import derived_series


def test_out_quotient_alt5(alt5, alt5_aut):
    A = alt5_aut
    socle = inner_automorphism_ids(alt5, A)
    out = st.out_quotient(A, socle)
    assert out.order == 2
    assert out.pi[0] == 0


def test_out_quotient_trivial():
    s5 = catalog.sym(5)
    out = st.out_quotient(s5, np.arange(s5.order))
    assert out.order == 1


def test_out_quotient_alt6(alt6, alt6_aut):
    A = alt6_aut
    socle = inner_automorphism_ids(alt6, A)
    out = st.out_quotient(A, socle)
    assert out.order == 4
    assert all(s == 1 for s in out.classes.sizes)  # abelian


def test_out_quotient_rejects_non_normal():
    s4 = catalog.sym(4)
    stab = s4.subgroup_closure(np.flatnonzero(s4.elements[:, 0] == 0))
    with pytest.raises(pc.NotNormal):
        st.out_quotient(s4, stab)


def test_class_type_table_alt5(alt5_typing):
    tab = alt5_typing
    # the 4-cycle class: size 30, singleton type, rho = 30/(60*1) = 1/2
    assert Fraction(1, 2) in tab.rho
    sizes = [int(tab.classes.sizes[c]) for c in range(tab.n_classes)]
    i4 = sizes.index(30)
    assert tab.rho[i4] == Fraction(1, 2)
    # identity class: rho = 1/60
    assert tab.rho[0] == Fraction(1, 60)
    assert tab.h() == Fraction(1, 2)


def rho_sum_by_type(tab):
    sums = {}
    for c in range(tab.n_classes):
        tau = int(tab.type_of_class[c])
        sums[tau] = sums.get(tau, Fraction(0)) + tab.rho[c]
    return sums


def test_rho_sums_and_h_alt5(alt5_typing):
    assert all(s == 1 for s in rho_sum_by_type(alt5_typing).values())
    assert all(r <= alt5_typing.h() for r in alt5_typing.rho)


def test_rho_sums_alt6_and_psl28(alt6, alt6_aut, psl28, psl28_aut):
    for G, A in ((alt6, alt6_aut), (psl28, psl28_aut)):
        tab = st.class_type_table(A, inner_automorphism_ids(G, A))
        assert all(s == 1 for s in rho_sum_by_type(tab).values())
        assert all(r <= tab.h() for r in tab.rho)


def test_h_oracle_cross_check(alt5, alt5_aut, alt6, alt6_aut, psl28, psl28_aut):
    for G, A, expected in ((alt5, alt5_aut, Fraction(1, 2)),
                           (alt6, alt6_aut, Fraction(2, 3)),
                           (psl28, psl28_aut, Fraction(1, 2))):
        socle = inner_automorphism_ids(G, A)
        assert st.h_value(A, socle) == h_value_direct(A, socle) == expected


# -- Aut(S)'s classes from its orbits on the cosets of S -----------------------

def _agrees_with_the_closed_aut_s(name):
    """`coset_classes` in h's numbering equals `class_type_table` on the closed
    Aut(S) entry for entry, and the unnumbered table holds the same classes."""
    built = catalog.almost_simple(name)
    table = st.coset_classes(built, numbered=True)
    oracle = st.class_type_table(*closed_with_ids(built))
    assert table.sizes == oracle.classes.sizes
    assert table.types == oracle.type_of_class.tolist()
    assert table.rho == oracle.rho
    assert table.out.order == oracle.out.order
    assert np.array_equal(table.out.elements, oracle.out.quotient.elements)
    plain = st.coset_classes(built)
    assert sorted(zip(plain.sizes, plain.rho)) == sorted(zip(table.sizes, table.rho))
    assert sum(table.sizes) == built.aut_order


@pytest.mark.parametrize("name", ["alt5", "alt6", "alt7", "psl(2,7)", "psl(2,8)", "psl(2,16)",
                                  "psl(2,25)", "psl(2,27)", "psl(3,3)", "psl(3,4)"])
def test_coset_classes_agree_with_the_closed_aut_s(name):
    _agrees_with_the_closed_aut_s(name)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["psl(3,5)", "psl(2,64)"])
def test_coset_classes_agree_with_the_closed_aut_s_slow(name):
    _agrees_with_the_closed_aut_s(name)


@pytest.mark.parametrize("name", ["psl(2,25)", "psl(3,4)"])
def test_coset_classes_close_no_subgroup(monkeypatch, name):
    # C(ā) fuses S's orbits by its members, read off Out(S)'s Cayley table: no
    # subgroup closure picks its generators.  In psl(2,25), C(ā) = Out(S) = 2²
    # on the trivial class; psl(3,4)'s Out(S) is D₁₂
    built = catalog.almost_simple(name)
    for method in ("closure", "subgroup_closure"):
        monkeypatch.setattr(pc.FiniteGroup, method, lambda *a: pytest.fail("subgroup closed"))
    for numbered in (False, True):
        table = st.coset_classes(built, numbered=numbered)
        assert sum(table.sizes) == built.aut_order


@pytest.mark.parametrize("name, maps", [("alt6", 12), ("psl(3,4)", 30), ("psl(2,64)", 18)])
def test_coset_classes_map_s_once_per_generator_of_s(monkeypatch, name, maps):
    # one whole-S map per generator of S and Out-class: C(ā)'s members fuse
    # S's orbits on one member each (`fuse`), with no whole-S map of their own
    built, calls, real = catalog.almost_simple(name), [], pc.FiniteGroup.map_ids
    monkeypatch.setattr(pc.FiniteGroup, "map_ids",
                        lambda G, columns, g: calls.append(len(columns[0])) or real(G, columns, g))
    table = st.coset_classes(built)
    n_classes = len(pc.conjugacy_classes(table.out).classes)
    assert calls.count(built.group.order) == maps == built.group.gen_ids.size * n_classes


def test_twist_maps_are_the_lookups_of_the_lifted_rows(monkeypatch):
    # a map folds g·w over its base columns (`map_ids`): each twist map names
    # the members that `locate` finds for the base images of the full lifted
    # rows, on the same base.  The twists read S's points only, so the duality
    # conjugates S here too, through a line column built once over S, and its
    # map is `ids_of` of the full rows g·s·g⁻¹
    built, calls, real = catalog.almost_simple("psl(3,5)"), [], pc.FiniteGroup.map_ids
    S = built.group

    def recording(G, columns, g):
        ids = real(G, columns, g)
        if G is S:  # not Out(S)'s own class maps
            calls.append((columns, g, ids))
        return ids
    monkeypatch.setattr(pc.FiniteGroup, "map_ids", recording)
    assert max(st.coset_classes(built, numbered=True).rho) == Fraction(1, 4)
    assert len(calls) == 2 * S.gen_ids.size + 2
    lifted, step = built.lift(S.elements), 1 << 15
    for columns, g, ids in calls:
        cols = [int(column[0]) for column in columns]  # id 0 is the identity
        assert all(np.array_equal(column, lifted[:, x]) for column, x in zip(columns, cols))
        images = g[lifted[:, cols]]
        assert np.array_equal(ids, S._index.locate(images))
        assert np.array_equal(S.elements[ids][:, S.base], images)
    lines = 0
    for g in built.aut_rows:
        inverse = np.argsort(g)
        cols = inverse[S.base]
        ids = real(S, [lifted[:, x] for x in cols], g)
        assert all(np.array_equal(ids[lo:lo + step],
                                  S.ids_of(g[lifted[lo:lo + step][:, inverse[:S.degree]]]))
                   for lo in range(0, S.order, step))
        lines += cols.max() >= S.degree
    assert lines == 1  # the duality


@pytest.mark.parametrize("name, rows, outer, lookups", [
    ("alt6", 6, 2, 6 + 4 * 2), ("psl(2,27)", 8, 2, 8 + 6 * 2), ("psl(3,4)", 11, 3, 47)])
def test_coset_classes_look_up_each_coset_once_per_outer_row(monkeypatch, name, rows, outer,
                                                               lookups):
    # each of Aut(S)'s rows is looked up in S once, and the search runs over the
    # rows outside S alone (a row inside S finds no new coset), whose lookups
    # also give Out(S): no |Out|² table of lookups
    built, calls, real = catalog.almost_simple(name), [], st._coset_of
    monkeypatch.setattr(st, "_coset_of", lambda *a: calls.append(a) or real(*a))
    table = st.coset_classes(built, numbered=True)
    assert len(built.aut_rows) == rows
    assert len(calls) == lookups == rows + table.out.order * outer


@pytest.mark.parametrize("numbered", [False, True])
def test_coset_classes_lift_no_more_than_a_column_of_all_of_s(numbered):
    # a line of PG(2,4) is a column read off two point columns: only single
    # columns of all of S are lifted, and whole rows only for a few of S's rows.
    # Unnumbered, no line of all of S is read: a·g·a⁻¹ is in S for g in S
    built, calls = catalog.almost_simple("psl(3,4)"), []

    def lift(rows, cols=slice(None)):
        out = built.lift(rows, cols)
        calls.append(out.shape)
        return out
    table = st.coset_classes(built._replace(lift=lift), numbered=numbered)
    assert table.rho == st.coset_classes(built, numbered=numbered).rho
    whole = {width for rows, width in calls if rows == built.group.order}
    assert whole == ({1} if numbered else set())
    assert all(rows < 100 for rows, width in calls if width > 1)


def test_least_rows_keep_the_lifted_points_past_255():
    # S = C_200 on one-byte rows, lifted to two copies of its points, 400 in
    # all: the least lifted rows are in the lifted degree's type, two bytes
    S = catalog.cyclic(200)

    def lift(rows, cols=slice(None)):
        rows = np.asarray(rows, dtype=np.int64)
        return np.concatenate([rows, rows + 200], axis=1).astype(np.uint16)[:, cols]
    built = catalog.AlmostSimple(S, lift(S.elements[S.gen_ids]), S.order, S.order, lift)
    r, labels = np.arange(400) * 7 % 400, np.arange(S.order) % 3
    rows = st._least_rows(built, lambda x: lift(S.elements, [x])[:, 0], r, labels, 3)
    lifted = lift(S.elements)[:, r]
    least = [min(lifted[labels == k].tolist()) for k in range(3)]
    assert rows.dtype == np.uint16 and rows.tolist() == least


def test_coset_classes_check_the_order_formula():
    # |Out|·|S| must be the given |Aut(S)|: a wrong formula gives no table
    built = catalog.almost_simple("psl(3,4)")
    for wrong in (built.aut_order // 2, built.aut_order * 2, built.aut_order + 1):
        with pytest.raises(pc.GroupError):
            st.coset_classes(built._replace(aut_order=wrong))


def test_h_single_coset_case():
    # |Out| = 1: h = max class size / |S|
    s5 = catalog.sym(5)
    A = automorphism_group(s5)
    socle = inner_automorphism_ids(s5, A)
    assert socle.size == 120
    h = st.h_value(A, socle)
    assert h == Fraction(max(pc.conjugacy_classes(A).sizes), 120)


# -- coarse types -------------------------------------------------------------

@pytest.fixture(scope="module")
def alt5_coarse(alt5, alt5_aut):
    A = alt5_aut
    socle = inner_automorphism_ids(alt5, A)
    return A, socle, coarse_quotient(A, socle, socle_ids=socle)


def test_coarse_quotient_validation(alt5, alt5_aut):
    A = alt5_aut
    socle = inner_automorphism_ids(alt5, A)
    with pytest.raises(pc.GroupError):
        coarse_quotient(A, np.array([0]), socle_ids=socle)  # misses the socle
    s4 = catalog.sym(4)
    v4 = derived_series(s4)[2]
    assert v4.size == 4
    with pytest.raises(NonAbelianQuotient):
        coarse_quotient(s4, v4)  # S4/V4 = S3 is not abelian


def test_ct_set_examples(alt5_coarse):
    A, socle, coarse = alt5_coarse
    wg = wr.WreathGroup(A, 2)
    swap = np.array([1, 0])
    socle_set = set(socle.tolist())

    # all base entries inside the socle -> {identity coarse type}
    rng = np.random.default_rng(8)
    members = socle.tolist()
    for _ in range(20):
        b = (members[int(rng.integers(len(members)))],
             members[int(rng.integers(len(members)))])
        t = wg.top.elements[int(rng.integers(2))]
        assert ct_set(wg, wg.element(b, t), coarse) == frozenset({0})

    # n=1: singleton {coset of the entry}
    wg1 = wr.WreathGroup(A, 1)
    outer = next(x for x in range(A.order) if x not in socle_set)
    w = wg1.element((outer,), np.arange(1))
    assert ct_set(wg1, w, coarse) == frozenset({int(coarse.pi[outer])})

    # two 1-cycles landing in distinct cosets -> 2-element set
    w = wg.element((0, outer), np.arange(2))
    assert len(ct_set(wg, w, coarse)) == 2


def test_ct_constant_on_orbits(alt5_coarse):
    # conjugate pairs inside Aut(Alt_5) wr Sym_2 have equal CT
    A, socle, coarse = alt5_coarse
    wg = wr.WreathGroup(A, 2)
    rng = np.random.default_rng(21)
    for _ in range(60):
        w = wo.random_element(wg, rng)
        k = wo.random_element(wg, rng)
        assert ct_set(wg, w, coarse) == ct_set(wg, wo.conj(wg, w, k), coarse)


def test_ct_power_check(alt5_coarse):
    A, socle, coarse = alt5_coarse
    wg = wr.WreathGroup(A, 3)
    rng = np.random.default_rng(33)
    checked = 0
    for _ in range(300):
        w = wo.random_element(wg, rng)
        k = int(rng.integers(1, 12))
        from math import gcd
        if gcd(k, int(wg.top.element_orders()[w.top])) != 1:
            with pytest.raises(GcdViolation):
                ct_power_check(wg, w, k, coarse)
            continue
        assert ct_power_check(wg, w, k, coarse)
        checked += 1
    assert checked > 100

    w = wo.random_element(wg, rng)
    assert ct_power_check(wg, w, 1, coarse)  # k = 1 is always coprime


def test_ct_on_alt6_base(alt6, alt6_aut):
    # the per-base power-rule sweep on the Aut(Alt_6) base (|Out| = 4), plus
    # an explicit 2-element CT set from distinct cosets
    A = alt6_aut
    socle = inner_automorphism_ids(alt6, A)
    coarse = coarse_quotient(A, socle, socle_ids=socle)
    assert coarse.quotient.order == 4
    wg = wr.WreathGroup(A, 2)

    socle_set = set(socle.tolist())
    outer = next(x for x in range(A.order) if x not in socle_set)
    w = wg.element((0, outer), np.arange(2))
    assert len(ct_set(wg, w, coarse)) == 2

    rng = np.random.default_rng(77)
    from math import gcd
    checked = 0
    while checked < 200:
        w = wo.random_element(wg, rng)
        k = int(rng.integers(1, 20))
        if gcd(k, int(wg.top.element_orders()[w.top])) != 1:
            continue
        assert ct_power_check(wg, w, k, coarse)
        checked += 1


def test_ct_power_rule_on_psl28_base(psl28, psl28_aut):
    A = psl28_aut
    socle = inner_automorphism_ids(psl28, A)
    coarse = coarse_quotient(A, socle, socle_ids=socle)
    assert coarse.quotient.order == 3
    wg = wr.WreathGroup(A, 2)
    rng = np.random.default_rng(78)
    from math import gcd
    checked = 0
    while checked < 150:
        w = wo.random_element(wg, rng)
        k = int(rng.integers(1, 20))
        if gcd(k, int(wg.top.element_orders()[w.top])) != 1:
            continue
        assert ct_power_check(wg, w, k, coarse)
        checked += 1
