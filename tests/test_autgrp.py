from fractions import Fraction

import numpy as np
import pytest

from autorbit import autgrp, catalog, permcore as pc, stypes
from autorbit.autgrp import (ActionMismatch, BudgetExceeded, TooLarge, automorphism_group,
                             inner_automorphism_ids, maol)
import class_orbits_oracle
from aut_closed import closed_aut
from class_orbits_oracle import class_orbits, closed_with_ids
from test_closure_memory import SMALL_CATALOG


def orbit_of(x, gens, n):
    """The orbit of x under the id permutations `gens`, as a set."""
    orbit_of = pc.orbits(gens, n)[1]
    return set(np.flatnonzero(orbit_of == orbit_of[x]).tolist())


def test_cayley_table_shape():
    s3 = catalog.sym(3)
    T, inv = s3.cayley(), s3.inverse_ids()
    assert T.shape == (6, 6)
    assert sorted(s3.element_orders().tolist()) == [1, 2, 2, 2, 3, 3]
    assert all(T[i, inv[i]] == 0 for i in range(6))


def test_aut_cyclic5():
    A = automorphism_group(catalog.cyclic(5))
    assert A.order == 4  # units mod 5


def test_aut_sym3_all_inner():
    s3 = catalog.sym(3)
    A = closed_aut(s3)
    assert A.order == 6
    assert inner_automorphism_ids(s3, A).size == 6


def test_aut_alt5(alt5, alt5_aut):
    assert alt5_aut.order == 120
    # MCS(Aut(Alt_5)) = MCS(Sym_5) = 4
    assert pc.mcs(alt5_aut) == 4


def test_automorphisms_preserve_table_exhaustive(alt5, alt5_aut):
    # full n^2 check for carriers up to order 200
    small = [(catalog.sym(3), None), (catalog.extraspecial_p3_exponent_p(3), None),
             (catalog.cyclic(12), None), (alt5, alt5_aut)]
    for G, A in small:
        if A is None:
            A = closed_aut(G)
        T = G.cayley()
        for phi in A.elements:
            phi = phi.astype(np.int64)
            assert np.array_equal(phi[T], T[phi[:, None], phi[None, :]])


def test_automorphisms_preserve_table_sampled(alt6, alt6_aut):
    # carrier order 360: sample (phi, x, y) triples instead of the full n^2
    G = alt6
    T = G.cayley()
    rng = np.random.default_rng(6)
    perms = alt6_aut.elements
    for _ in range(2000):
        phi = perms[int(rng.integers(perms.shape[0]))].astype(np.int64)
        x, y = (int(v) for v in rng.integers(G.order, size=2))
        assert phi[T[x, y]] == T[phi[x], phi[y]]


def test_orbit_of_central_element():
    # Aut fixes each central element's orbit inside the center; for cyclic
    # groups of even order the unique involution is fixed by every
    # automorphism, so its orbit is a singleton
    c8 = catalog.cyclic(8)
    A = automorphism_group(c8)
    orders = c8.element_orders()
    involution = int(np.flatnonzero(orders == 2)[0])
    assert orbit_of(involution, A.rows, c8.order) == {involution}


def test_aut_divisible_by_inner(alt6, alt6_aut):
    n_inner = alt6.order // alt6.center_ids().size
    assert alt6_aut.order % n_inner == 0
    assert alt6_aut.order == 1440


def test_inner_count_is_order_over_center():
    for G in (catalog.sym(3), catalog.extraspecial_p3_exponent_p(3),
              catalog.cyclic(6), catalog.alt(4)):
        A = closed_aut(G)
        assert inner_automorphism_ids(G, A).size == G.order // G.center_ids().size


def test_orbit_of():
    s5 = catalog.sym(5)
    gens = automorphism_group(s5).rows
    assert orbit_of(0, gens, s5.order) == {0}
    four_cycle = s5.id_of(pc.parse_cycles("(1 2 3 4)", 5))
    assert len(orbit_of(four_cycle, gens, s5.order)) == 30


def test_orbit_sizes_divide_aut_and_sum(alt5, alt5_aut):
    sizes = np.bincount(pc.orbits(alt5_aut.elements[alt5_aut.gen_ids], alt5.order)[1]).tolist()
    assert sum(sizes) == alt5.order
    assert all(alt5_aut.order % s == 0 for s in sizes)


def test_maol_examples(alt5):
    rep = maol(catalog.cyclic(5), automorphism_group(catalog.cyclic(5)))
    assert rep.maol == Fraction(4, 5)
    assert rep.orbit_sizes == [4, 1]

    rep5 = maol(alt5, automorphism_group(alt5))
    assert rep5.maol == Fraction(2, 5)

    es = catalog.extraspecial_p3_exponent_p(3)
    A = automorphism_group(es)
    assert A.order == 432
    rep_es = maol(es, A)
    assert rep_es.orbit_sizes == [24, 2, 1]


def test_maol_psl28(psl28):
    A = automorphism_group(psl28)
    assert A.order == 1512
    assert maol(psl28, A).maol == Fraction(3, 7)


def test_guards():
    with pytest.raises(TooLarge):
        automorphism_group(catalog.projective_group("SL", 3, 4))
    # Alt6 is generated by a (4,2)-element and a double transposition; the
    # search builds 1 map for the first (one class representative) and
    # 1 * 45 for the second: 46 in all
    with pytest.raises(BudgetExceeded):
        automorphism_group(catalog.alt(6), budget=45)
    assert automorphism_group(catalog.alt(6), budget=46).order == 1440


@pytest.mark.parametrize("name, aut_order", [
    ("sym4", 24), ("alt5", 120), ("extraspecial(3)", 432), ("psl(2,7)", 336)])
def test_a_lost_survivor_fails_the_sized_closure(monkeypatch, name, aut_order):
    # the other survivors and Inn(G) still generate Aut(G), so only the order
    # summed over the survivors tells that one is missing
    G = catalog.resolve(name)
    stages = len(autgrp._generating_set(G, autgrp._fingerprint_labels(G)))
    extend = autgrp._extend_and_filter

    def lossy(G, survivors, cand, gen_ids):
        kept = extend(G, survivors, cand, gen_ids)
        return kept[:-1] if len(gen_ids) == stages else kept

    monkeypatch.setattr(autgrp, "_extend_and_filter", lossy)
    with pytest.raises(pc.GeneratorDeficiency, match=f"^closed to order {aut_order}, expected "):
        automorphism_group(G)


def test_a_row_that_is_no_automorphism_fails_the_search(monkeypatch):
    # a kept row that sends an involution of Sym4 to an element of order 3 is a
    # bijection fixing the identity, and no automorphism
    G = catalog.sym(4)
    orders, make = G.element_orders(), autgrp.Aut
    two, three = int(np.flatnonzero(orders == 2)[0]), int(np.flatnonzero(orders == 3)[0])

    def patched(rows, order):
        rows = rows.copy()
        rows[-1, [two, three]] = rows[-1, [three, two]]
        return make(rows, order)

    monkeypatch.setattr(autgrp, "Aut", patched)
    with pytest.raises(pc.GroupError,
                       match="^a generator of the Aut search result is not an automorphism$"):
        automorphism_group(G)


@pytest.mark.parametrize("patch", ["center", "order"])
def test_a_wrong_inner_count_fails_the_search(monkeypatch, patch):
    # |G|/|Z(G)| must be |Inn(G)|, the order of the chain of the inner rows, and
    # divide |Aut(G)|: on Sym4 a center of 2 elements makes it 12 against the
    # chain's 24, and an order of 36 leaves it 24, which does not divide 36
    G, make = catalog.sym(4), autgrp.Aut
    assert (automorphism_group(G).order, G.center_ids().size) == (24, 1)
    if patch == "center":
        monkeypatch.setattr(G, "center_ids", lambda: np.arange(2))
    else:
        monkeypatch.setattr(autgrp, "Aut", lambda rows, order: make(rows, 36))
    with pytest.raises(pc.GroupError,
                       match=r"^\|Inn\| is not \|G\|/\|Z\(G\)\| or does not divide "):
        automorphism_group(G)


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_the_search_sweep_reads_each_source_off_the_table(name):
    # `sweep` yields (map index, new points), and the search reads the point
    # x that x*g was found from off the Cayley table as (x*g)*g^-1: on each
    # prefix of the search's generators, every such x was seen before
    G = catalog.resolve(name)
    T, inv = G.cayley(), G.inverse_ids()
    gen_ids = autgrp._generating_set(G, autgrp._fingerprint_labels(G))
    for j in range(1, len(gen_ids) + 1):
        seen, before = np.zeros(G.order, dtype=bool), np.zeros(G.order, dtype=bool)
        before[0] = True
        for level in autgrp._sweep(T, gen_ids[:j], seen):
            k, found = level
            src = T[found, inv[gen_ids[k]]]
            assert before[src].all() and np.array_equal(T[src, gen_ids[k]], found)
            before[found] = True
        assert np.array_equal(before, seen)


@pytest.mark.parametrize("name", ["sym5", "alt6", "extraspecial(3)", "psl(2,7)"])
def test_the_search_does_not_depend_on_its_batches(monkeypatch, name):
    # the survivors are extended a block of maps at a time; one survivor a
    # block keeps the same maps in the same order
    G = catalog.resolve(name)
    A = closed_aut(G)
    one_each = lambda width, n: (slice(i, i + 1) for i in range(n))
    monkeypatch.setattr(autgrp, "_row_blocks", one_each)
    B = closed_aut(catalog.resolve(name))
    assert np.array_equal(A.elements, B.elements) and np.array_equal(A.gen_ids, B.gen_ids)


def test_maol_needs_automorphisms_of_the_group(alt5):
    with pytest.raises(ActionMismatch):
        maol(catalog.sym(3), automorphism_group(alt5))


def test_report_serialization(alt5):
    rep = maol(alt5, automorphism_group(alt5))
    js = rep.to_json()
    assert js["maol"] == "2/5"
    assert js["MAOL"] == max(js["orbitSizes"]) == 24


def test_class_orbits_refuses_a_subgroup_that_is_not_normal():
    s5 = catalog.sym(5)
    stabilizer = np.flatnonzero(s5.elements[:, 0] == 0)  # a Sym4
    assert stabilizer.size == 24
    with pytest.raises(pc.NotNormal, match=r"^the subgroup is not normal in Aut\(S\)$"):
        class_orbits(s5, stabilizer)


def test_class_orbits_conjugates_by_each_generator_once(monkeypatch):
    A, ids = closed_with_ids(catalog.almost_simple("alt5"))  # Sym5 and its Alt5
    calls, real = [], class_orbits_oracle.conjugation_ids
    monkeypatch.setattr(class_orbits_oracle, "conjugation_ids",
                        lambda G, c, ids=None: calls.append(c) or real(G, c, ids))
    assert class_orbits(A, ids) == [24, 20, 15, 1]
    assert len(calls) == len(A.gen_ids) > 0


def fused_sizes(G, rows, lift=np.asarray):
    """G's classes fused by the rows (`stypes.fuse` on the trivial coset), as
    `maol --group` reads them: the fused orbits' sizes, largest first."""
    table, rows = pc.conjugacy_classes(G), np.asarray(rows)
    fused = stypes.fuse(G, table.least, table.class_of, np.arange(rows.shape[1]), rows, lift)
    return sorted(np.bincount(fused[table.class_of]).tolist(), reverse=True)


@pytest.mark.parametrize("rows", [[[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],  # Sym5's two rows
                                  [[0, 1, 2, 3, 4], [4, 1, 2, 3, 0]]])  # the second moves 4
def test_fuse_refuses_a_row_that_does_not_normalize(rows):
    # a Sym4 fixing the point 4: the 5-cycle, or the transposition (0 4),
    # conjugates a generator of it out of it
    s4 = pc.close_group([[1, 0, 2, 3, 4], [1, 2, 3, 0, 4]])
    assert s4.order == 24
    with pytest.raises(pc.NotNormal, match=r"^the subgroup is not normal in Aut\(S\)$"):
        fused_sizes(s4, rows)
    # a first row that normalizes it fuses none of its classes
    assert fused_sizes(s4, rows[:1]) == [8, 6, 6, 3, 1]


def test_fuse_reads_back_on_g_points():
    # PSL_3(2) on its 7 points, Aut(S) on 7 points + 7 lines: the duality
    # fuses the two classes of elements of order 7, and the rows of
    # PGL_3(2) = PSL_3(2) (all but the duality) fuse nothing
    G = catalog.almost_simple("psl(3,2)")
    assert (G.group.degree, G.aut_rows.shape[1]) == (7, 14)
    assert sorted(pc.conjugacy_classes(G.group).sizes) == [1, 21, 24, 24, 42, 56]
    assert fused_sizes(G.group, G.aut_rows, G.lift) == [56, 48, 42, 21, 1]
    assert fused_sizes(G.group, G.aut_rows[:-1], G.lift) == [56, 42, 24, 24, 21, 1]
    swap = np.arange(14)
    swap[[0, 7]] = [7, 0]  # a point with a line: the conjugates send points to lines
    with pytest.raises(pc.NotNormal, match=r"^the subgroup is not normal in Aut\(S\)$"):
        fused_sizes(G.group, swap[None], G.lift)


def test_fuse_refuses_a_row_that_moves_the_coset():
    # V4 in Sym4 and its coset V4·(0 1), on which V4 has the orbits
    # {(0 1), (2 3)} and {(0 2 1 3), (0 3 1 2)}: (0 1) fixes the coset and
    # fuses neither, and the 3-cycle (0 1 2) normalizes V4 but sends (0 1)
    # to (1 2), outside the coset, as Sym4/V4 = Sym3 is not abelian
    v4 = pc.close_group([[1, 0, 3, 2], [2, 3, 0, 1]])
    a = np.array([1, 0, 2, 3])
    # s ↦ t·s·a·t⁻¹·a⁻¹ for V4's generators t, with a⁻¹ = a
    maps = [t[v4.elements[:, a[np.argsort(t)[a]]]] for t in v4.elements[v4.gen_ids]]
    least, orbit_of = pc.orbits((v4.ids_of(m) for m in maps), v4.order)
    parts = [np.flatnonzero(orbit_of == k) for k in range(len(least))]
    assert least.tolist() == [p[0] for p in parts]
    assert sorted(sorted(v4.elements[p][:, a].tolist()) for p in parts) == [
        [[0, 1, 3, 2], [1, 0, 2, 3]], [[2, 3, 1, 0], [3, 2, 0, 1]]]
    assert stypes.fuse(v4, least, orbit_of, a, a[None]).tolist() == [0, 1]
    with pytest.raises(pc.NotNormal, match=r"^the subgroup is not normal in Aut\(S\)$"):
        stypes.fuse(v4, least, orbit_of, a, np.array([[1, 2, 0, 3]]))
