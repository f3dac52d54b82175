from math import gcd

import numpy as np
import pytest

from autorbit import catalog, permcore as pc
from autorbit.catalog import (BadParameter, hermitian_inner, is_unitary,
                              projective_group, projective_order, resolve,
                              su_generators, gu_reflections)
from autorbit.fields import make_field


def test_sym_alt_cyclic_orders():
    assert catalog.sym(1).order == 1
    assert catalog.sym(4).order == 24
    assert catalog.alt(5).order == 60
    assert catalog.alt(6).order == 360
    assert catalog.cyclic(5).order == 5
    assert all(s == 1 for s in pc.conjugacy_classes(catalog.cyclic(5)).sizes)


def test_extraspecial():
    es = catalog.extraspecial_p3_exponent_p(3)
    assert es.order == 27
    orders = set(int(o) for o in es.element_orders())
    assert orders == {1, 3}
    z = es.center_ids()
    assert z.size == 3
    assert np.array_equal(np.sort(es.derived_subgroup_ids()), np.sort(z))
    with pytest.raises(BadParameter):
        catalog.extraspecial_p3_exponent_p(2)


def test_extraspecial_5():
    es = catalog.extraspecial_p3_exponent_p(5)
    assert es.order == 125
    assert set(int(o) for o in es.element_orders()) == {1, 5}
    assert es.center_ids().size == 5


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_psl2_order_formula(q):
    G = projective_group("SL", 2, q)
    assert G.order == q * (q * q - 1) // gcd(2, q - 1)
    assert G.degree == q + 1


def test_projective_examples():
    psl28 = projective_group("SL", 2, 8)
    assert psl28.order == 504 and psl28.degree == 9
    psl34 = projective_group("SL", 3, 4)
    assert psl34.order == 20160 and psl34.degree == 21
    pgl32 = projective_group("GL", 3, 2)
    assert pgl32.order == 168


def test_projective_order_formulas():
    assert projective_order("GL", 3, 4) == 60480
    assert projective_order("GU", 3, 4) == 62400
    assert projective_order("SU", 3, 2) == 72
    assert projective_order("GU", 4, 2) == 25920


def test_projective_bad_parameters():
    with pytest.raises(BadParameter):
        projective_group("XX", 3, 4)
    with pytest.raises(BadParameter):
        projective_group("SL", 1, 4)
    from autorbit.fields import TooLarge
    with pytest.raises(TooLarge):
        projective_group("SL", 4, 9, limit=10_000)


def test_unitary_generators_preserve_form():
    for d, q in [(3, 2), (3, 3), (4, 2)]:
        F = make_field(*{2: (2, 2), 3: (3, 2), 4: (2, 4)}[q])
        for M in su_generators(F, d):
            assert is_unitary(F, M)
        for M in gu_reflections(F, d, q):
            assert is_unitary(F, M)


def test_hermitian_inner_is_hermitian():
    F = make_field(2, 4)
    rng = np.random.default_rng(5)
    for _ in range(40):
        u = tuple(int(x) for x in rng.integers(16, size=3))
        v = tuple(int(x) for x in rng.integers(16, size=3))
        assert hermitian_inner(F, u, v) == F.conj(hermitian_inner(F, v, u))


def test_pgu_and_psu_small():
    pgu32 = projective_group("GU", 3, 2)
    assert pgu32.order == 216
    psu33 = projective_group("SU", 3, 3)
    assert psu33.order == 6048


@pytest.mark.slow
def test_psu32_brute_force_fallback():
    # SU_3(2) is the one unitary group its transvections do not generate;
    # the constructor recovers it by scanning all matrices
    psu32 = projective_group("SU", 3, 2)
    assert psu32.order == 72
    assert pc.is_solvable(psu32)


def test_extended_aut_psl34(aut_psl34, psl34_socle):
    assert aut_psl34.order == 241920
    assert aut_psl34.degree == 42
    assert psl34_socle.size == 20160
    # every element either preserves the 21+21 block split or swaps it, and
    # the duality coset swaps it entirely (no point maps to a point there)
    rng = np.random.default_rng(0)
    sample = rng.integers(aut_psl34.order, size=200)
    for i in sample:
        img = aut_psl34.elements[i][:21]
        points_to_points = np.all(img < 21)
        points_to_lines = np.all(img >= 21)
        assert points_to_points or points_to_lines


def test_resolve_names():
    assert resolve("alt5").order == 60
    assert resolve("sym(6)").order == 720
    assert resolve("cyclic12").order == 12
    assert resolve("extraspecial(3)").order == 27
    assert resolve("psl(2,8)").order == 504
    with pytest.raises(BadParameter):
        resolve("nosuchgroup(3)")
    with pytest.raises(BadParameter):
        resolve("psl")


def test_resolve_names_ending_in_digits(monkeypatch):
    # the name grammar would split these into "extraspecial" + 27 and
    # "autpsl" + 34
    assert resolve("extraspecial27").order == 27
    monkeypatch.setattr(catalog, "extended_aut_psl34", lambda limit: ("built", limit))
    assert resolve(" AutPSL34 ", limit=99) == ("built", 99)


@pytest.mark.slow
def test_resolve_autpsl34_builds_the_group():
    assert resolve("autpsl34").order == 241920
