"""Acceptance suite: every stated checkpoint at its stated tolerance (all are
exact equalities or exact inequalities; no tolerances anywhere).  One printed
pass/fail line per criterion item; run with -s (or see captured output) for
the lines."""

from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from autorbit import catalog, multinomial as mn, permcore as pc, stypes as st, wreath as wr
from autorbit.autgrp import automorphism_group, inner_automorphism_ids, maol
import wreath_oracle as wo
from multinomial_oracle import orbit_upper_bound, pmf
from stypes_oracle import coarse_quotient, ct_power_check, ct_set, h_value_direct
from subgroup_oracle import derived_series, derived_subgroup, is_characteristic, is_solvable


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


# -- criterion 1: paper-table reproduction, exact equality --------------------

@pytest.fixture(scope="module")
def alt6_pack(alt6, alt6_aut):
    return alt6_aut, inner_automorphism_ids(alt6, alt6_aut)


PAPER_TABLE_SIMPLE = [
    ("mcs-pgl(2,3)", "pgl(2,3)", 3),
    ("mcs-pgl(3,2)", "pgl(3,2)", 3),
    ("mcs-pgl(3,4)", "pgl(3,4)", 12),
    ("mcs-pgu(3,4)", "pgu(3,4)", 13),
    ("mcs-pgl(4,2)", "pgl(4,2)", 6),
    ("mcs-pgu(4,2)", "pgu(4,2)", 5),
]


def test_c1_mcs_sym5():
    with criterion("criterion-1 MCS(Sym_5) = 4"):
        assert pc.mcs(catalog.sym(5)) == 4


def test_c1_mcs_aut_alt6(alt6_pack):
    with criterion("criterion-1 MCS(Aut(Alt_6)) = 6"):
        assert pc.mcs(alt6_pack[0]) == 6


def test_c1_h_alt5(alt5, alt5_aut):
    with criterion("criterion-1 h(Alt_5) = 1/2"):
        assert st.h_value(alt5_aut, inner_automorphism_ids(alt5, alt5_aut)) == Fraction(1, 2)


def test_c1_h_alt6(alt6_pack):
    with criterion("criterion-1 h(Alt_6) = 2/3"):
        A, socle = alt6_pack
        h = st.h_value(A, socle)
        assert h == h_value_direct(A, socle) == Fraction(2, 3)
        # Out(Alt_6) is abelian, so each S-type is a single coset and
        # rho(c) = |c| / 360.  The largest class has 1440 / MCS = 240
        # elements (the odd permutations of cycle types (3,2) and (6),
        # fused), all outside the socle; 3/4 would need a class of 270.
        table = pc.conjugacy_classes(A)
        assert pc.mcs(A) == 6
        largest = [c for c in table.classes if c.size == A.order // pc.mcs(A)]
        assert len(largest) == 1 and largest[0].size == 240
        assert not np.isin(largest[0], socle).any()
        assert h == Fraction(int(largest[0].size), int(socle.size))


@pytest.mark.parametrize("label,name,expected", PAPER_TABLE_SIMPLE,
                         ids=[row[0] for row in PAPER_TABLE_SIMPLE])
def test_c1_mcs_projective(label, name, expected):
    with criterion(f"criterion-1 {label} = {expected}"):
        assert pc.mcs(catalog.resolve(name)) == expected


def test_c1_maol_psl28(psl28, psl28_aut):
    with criterion("criterion-1 maol(PSL_2(8)) = 3/7"):
        assert maol(psl28, psl28_aut).maol == Fraction(3, 7)


def test_c1_maol_extraspecial27():
    with criterion("criterion-1 maol(extraspecial 27, exponent 3) = 8/9"):
        es = catalog.extraspecial_p3_exponent_p(3)
        A = automorphism_group(es)
        assert A.order == 432
        # Aut(G) acts as GL_2(3) on G/Z(G) and moves every non-central
        # element to every other: orbits {1}, Z(G) minus 1, G minus Z(G).
        # (2/3 is the maol of the exponent-9 group of order 27.)
        report = maol(es, A)
        assert report.orbit_sizes == [24, 2, 1]
        biggest = max(pc.orbits(A.elements[A.gen_ids], es.order)[0], key=len)
        non_central = np.setdiff1d(np.arange(es.order), es.center_ids())
        assert np.array_equal(biggest, non_central)
        assert report.maol == Fraction(24, 27) == Fraction(8, 9)


# -- criterion 2: Aut(PSL_3(4)) geometric ---------------------------------------

def test_c2_aut_psl34(aut_psl34):
    with criterion("criterion-2 |Aut(PSL_3(4))| = 241920, largest class = 24192"):
        assert aut_psl34.order == 241920
        table = pc.conjugacy_classes(aut_psl34)
        assert max(table.sizes) == 24192


# -- criterion 3: wreath conjugacy oracle equivalence ---------------------------

def test_c3_exhaustive_s3_wr_s3():
    with criterion("criterion-3 conj_test == brute force on all of Sym_3 wr Sym_3"):
        wg = wr.WreathGroup(catalog.sym(3), 3)
        assert wg.order == 1296
        codes = wg.class_codes()
        keys = {}
        for code in range(wg.order):
            el = wo.unpack(wg, code)
            k = (pc.cycle_type(wg.top.elements[el.top]),
                 tuple(sorted(wr.profile(wg, el).by_length.items())))
            keys.setdefault(k, []).append(code)
        brute = {}
        for code in range(wg.order):
            brute.setdefault(int(codes[code]), []).append(code)
        # identical partitions == agreement on every ordered pair
        assert sorted(map(tuple, brute.values())) == sorted(map(tuple, keys.values()))


def test_c3_sampled_s3_wr_s4():
    with criterion("criterion-3 conj_test == brute force on 10^4 pairs of Sym_3 wr Sym_4"):
        wg = wr.WreathGroup(catalog.sym(3), 4)
        rng = np.random.default_rng(2024)
        disagreements = 0
        for _ in range(10_000):
            v, w = wo.random_element(wg, rng), wo.random_element(wg, rng)
            if wr.conj_test(wg, v, w) != wr.brute_force_conj(wg, v, w):
                disagreements += 1
        assert disagreements == 0


# -- criterion 4: the Lagrange-point grids --------------------------------------

def test_c4_lemma3_grids():
    with criterion("criterion-4 grid check: zero violations on the quoted ranges"):
        report = mn.verify_lemma3_grids()
        assert report["violations"] == []
        assert dict((k, ns) for k, ns in mn.GRID_RANGES) == {
            4: tuple(range(1, 10)),
            3: tuple(x for x in range(1, 16) if x != 3),
            2: tuple(range(10, 97)),
        }


# -- criterion 5: pmf bounded by max success probability ------------------------

def test_c5_pmf_exhaustive():
    with criterion("criterion-5 pmf <= max rho, exhaustive grid, zero violations"):
        report = mn.pmf_bound_check("exhaustive")
        assert report["violations"] == []
        assert pmf((Fraction(1, 2), Fraction(1, 2)), (1, 1)) == Fraction(1, 2)


# -- criterion 6: orbit-proportion dominance over Aut(Alt_5) wr Sym_2 -----------

def test_c6_dominance_full_sweep(alt5_aut, alt5_typing):
    with criterion("criterion-6 brute orbit proportion <= product bound, all 28800 elements"):
        H = wr.WreathGroup(alt5_aut, 2)
        assert H.order == 28800
        codes = H.class_codes()
        sizes = np.bincount(codes)
        cache = {}
        for code in range(H.order):
            w = wo.unpack(H, code)
            prof = wr.profile(H, w, typing=alt5_typing)
            key = tuple(sorted(prof.by_length_and_type.items()))
            bound = cache.get(key)
            if bound is None:
                bound = orbit_upper_bound(H, w, alt5_typing)
                cache[key] = bound
            assert Fraction(int(sizes[codes[code]]), H.order) <= bound


# -- criterion 7: the large-orbit construction ----------------------------------

def test_c7_hp_p2(alt5_aut):
    with criterion("criterion-7 H_2 over Alt_5: measured orbit = 3600 = predicted"):
        hp = wr.build_hp(alt5_aut, 2)
        assert hp.measured_orbit == hp.predicted_orbit == 3600
        assert Fraction(hp.measured_orbit, hp.order) >= \
            Fraction(1, 2) * maol(alt5_aut, automorphism_group(alt5_aut)).maol


@pytest.mark.slow
def test_c7_hp_p3(alt5_aut):
    with criterion("criterion-7 H_3 over Alt_5: measured orbit = 864000 = predicted"):
        hp = wr.build_hp(alt5_aut, 3)
        assert hp.measured_orbit == hp.predicted_orbit == 864_000


# -- criterion 8: property suites ------------------------------------------------

def test_c8_class_equation():
    with criterion("criterion-8 class equation on the catalog"):
        for name in ["sym4", "sym5", "alt5", "cyclic12", "extraspecial(3)",
                     "psl(2,8)", "pgl(2,3)"]:
            G = catalog.resolve(name)
            table = pc.conjugacy_classes(G)
            assert sum(table.sizes) == G.order
            assert all(G.order % s == 0 for s in table.sizes)
            assert pc.mcs(G) * max(table.sizes) == G.order


def test_c8_quotient_orders():
    with criterion("criterion-8 quotient orders |G/N| = |G|/|N|"):
        pairs = [("sym4", "derived"), ("alt4", "derived"),
                 ("extraspecial(3)", "center"), ("cyclic12", "squares")]
        for name, kind in pairs:
            G = catalog.resolve(name)
            N = _named_subgroup(G, kind)
            Q = pc.quotient_group(G, N).group
            assert Q.order * N.size == G.order


def _named_subgroup(G, kind):
    if kind == "derived":
        return derived_subgroup(G)
    if kind == "second-derived":
        return derived_series(G)[2]
    if kind == "center":
        return G.center_ids()
    if kind == "squares":
        return G.subgroup_closure([G.mul_ids(i, i) for i in range(G.order)])
    raise ValueError(kind)


MONOTONE_PAIRS = [
    ("sym3", "derived"),
    ("sym4", "derived"),
    ("sym4", "second-derived"),
    ("alt4", "derived"),
    ("extraspecial(3)", "center"),
    ("cyclic12", "squares"),
]


def test_c8_maol_monotone_on_characteristic_quotients():
    with criterion("criterion-8 maol(G/N) >= maol(G) on 6 characteristic pairs"):
        for name, kind in MONOTONE_PAIRS:
            G = catalog.resolve(name)
            N = _named_subgroup(G, kind)
            A = automorphism_group(G)
            assert is_characteristic(G, N, A.elements[A.gen_ids])
            Q = pc.quotient_group(G, N).group
            maol_g = maol(G, A).maol
            maol_q = maol(Q, automorphism_group(Q)).maol
            assert maol_q >= maol_g, (name, kind, maol_q, maol_g)


def test_c8_rho_identities_catalog_simples(alt5, alt5_aut, alt6, alt6_aut, psl28, psl28_aut,
                                           aut_psl34, psl34_socle):
    with criterion("criterion-8 rho sums to 1 per type and rho <= h, all catalog simples"):
        packs = [(A, inner_automorphism_ids(G, A))
                 for G, A in ((alt5, alt5_aut), (alt6, alt6_aut), (psl28, psl28_aut))]
        psl32 = catalog.resolve("psl(3,2)")
        a32 = automorphism_group(psl32)
        packs.append((a32, inner_automorphism_ids(psl32, a32)))
        packs.append((aut_psl34, psl34_socle))
        for A, socle in packs:
            tab = st.class_type_table(A, socle)
            sums = {}
            for c in range(tab.n_classes):
                tau = int(tab.type_of_class[c])
                sums[tau] = sums.get(tau, Fraction(0)) + tab.rho[c]
            assert all(s == 1 for s in sums.values())
            assert all(r <= tab.h() for r in tab.rho)


def test_c8_ct_orbit_constancy_and_power_rule(alt5, alt5_aut):
    with criterion("criterion-8 CT constant on orbits; power rule on seeded samples"):
        A = alt5_aut
        socle = inner_automorphism_ids(alt5, A)
        coarse = coarse_quotient(A, socle, socle_ids=socle)
        wg = wr.WreathGroup(A, 2)
        rng = np.random.default_rng(99)
        for _ in range(200):
            w = wo.random_element(wg, rng)
            k = wo.random_element(wg, rng)
            assert ct_set(wg, w, coarse) == ct_set(wg, wo.conj(wg, w, k), coarse)
        wg3 = wr.WreathGroup(A, 3)
        checked = 0
        while checked < 1000:
            w = wo.random_element(wg3, rng)
            k = int(rng.integers(1, 30))
            if gcd(k, int(wg3.top.element_orders()[w.top])) != 1:
                continue
            assert ct_power_check(wg3, w, k, coarse)
            checked += 1


# -- criterion 9: curated nonsolvable corpus -------------------------------------

NONSOLVABLE = ["alt5", "psl(3,2)", "alt6", "psl(2,8)", "sym5", "sym6", "pgl(2,7)"]


@pytest.mark.parametrize("name", NONSOLVABLE)
def test_c9_nonsolvable_bound(name, alt5, alt5_aut, alt6, alt6_aut, psl28, psl28_aut):
    with criterion(f"criterion-9 maol({name}) <= 3/7"):
        ready = {"alt5": (alt5, alt5_aut), "alt6": (alt6, alt6_aut),
                 "psl(2,8)": (psl28, psl28_aut)}
        if name in ready:
            G, A = ready[name]
        else:
            G = catalog.resolve(name)
            A = automorphism_group(G)
        m = maol(G, A).maol
        assert not is_solvable(G)
        assert m <= Fraction(3, 7)
        assert m <= Fraction(18, 19)
