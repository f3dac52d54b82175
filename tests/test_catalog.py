import hashlib
import itertools
from math import gcd

import numpy as np
import pytest

from autorbit import catalog, permcore as pc
from autorbit.autgrp import MAX_AUT_CARRIER, automorphism_group, maol
from autorbit.catalog import (BadParameter, hermitian_inner, is_unitary,
                              projective_group, projective_order, resolve,
                              su_generators)
from autorbit.fields import make_field
from class_orbits_oracle import closed_with_ids
from subgroup_oracle import derived_subgroup, is_solvable


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
    assert np.array_equal(np.sort(derived_subgroup(es)), np.sort(z))
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
        gens = su_generators(F, d)
        assert all(is_unitary(F, M) for M in gens)
        assert np.all(catalog._det(F, gens) == 1)
        mu = F.pow(F.primitive_element(), q - 1)  # the extra PGU generator
        assert is_unitary(F, catalog._diag(d, mu))


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


def test_psu32_brute_force_fallback():
    # SU_3(2) is the one unitary group its transvections do not generate;
    # the constructor names it up front and takes every unitary matrix of
    # determinant 1 as generators
    psu32 = projective_group("SU", 3, 2)
    assert psu32.order == 72
    assert is_solvable(psu32)


def unitary_matrices_by_loop(F, d):
    """`catalog._unitary_matrices` as a loop over Python tuples, its oracle: each
    tuple of orthonormal rows extended by every later-listed norm-1 vector
    orthogonal to all of them, then the matrices of determinant 1."""
    vecs = catalog._digit_rows(F.q ** d, F.q, d)
    unit = vecs[hermitian_inner(F, vecs, vecs) == 1]
    orth = (hermitian_inner(F, unit[:, None], unit[None, :]) == 0).tolist()
    found = [()]
    for _ in range(d):
        found = [rows + (j,) for rows in found for j in range(len(unit))
                 if all(orth[i][j] for i in rows)]
    mats = unit[np.array(found)]
    return mats[catalog._det(F, mats) == 1]


@pytest.mark.parametrize("p, f, d", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3)])
def test_unitary_matrices_match_the_loop(p, f, d):
    # the same matrices in the same order: SU_3(2)'s 216 generate PSU_3(2)
    F = make_field(p, f)
    assert np.array_equal(catalog._unitary_matrices(F, d), unitary_matrices_by_loop(F, d))


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


def test_psl34_is_an_alias_of_psl_3_4():
    assert resolve("psl34").elements.tobytes() == resolve("psl(3,4)").elements.tobytes()


@pytest.mark.parametrize("name", ["cyclic5", "alt4", "sym4", "psl(2,3)", "pgl(2,3)",
                                  "psl(4,2)", "psu(3,3)", "extraspecial(3)", "autpsl34"])
def test_almost_simple_aut_leaves_other_names_to_the_search(monkeypatch, name):
    monkeypatch.setattr(catalog, "resolve", lambda *a: pytest.fail("group built"))
    assert catalog.almost_simple(name) is None


@pytest.mark.parametrize("name, aut_degree", [
    ("alt7", 7), ("sym7", 7), ("alt6", 10), ("sym6", 10), ("pgl(2,9)", 10),
    ("psl(2,8)", 9), ("pgl(3,2)", 14), ("psl(3,3)", 26)])
def test_almost_simple_aut_embeds_the_named_group(name, aut_degree):
    built = catalog.almost_simple(name)
    A, ids = closed_with_ids(built)
    G = resolve(name)
    assert A.degree == aut_degree and built.group.name == G.name
    assert ids.size == G.order and np.array_equal(ids, A.subgroup_closure(ids))
    assert pc.is_normal(A, ids)
    # the same group: element orders agree as multisets
    assert sorted(A.element_orders()[ids].tolist()) == sorted(G.element_orders().tolist())


@pytest.mark.parametrize("name, socle_order", [
    ("ALT(7)", 2520), ("sym7", 2520), ("alt6", 360), ("sym6", 360), ("pgl(2,9)", 360),
    ("psl(2,8)", 504), ("pgl(2,4)", 60), ("pgl(3,2)", 168), ("psl34", 20160)])
def test_almost_simple_aut_names_g_and_gives_the_socle_order(name, socle_order):
    # G's name as `resolve` gives it, whatever the spelling, and |S|
    built = catalog.almost_simple(name)
    _, ids = closed_with_ids(built)
    assert (built.group.name, built.socle_order) == (resolve(name).name, socle_order)
    assert (ids.size == socle_order) == (name.lower() not in ("sym7", "sym6", "pgl(2,9)"))


def test_almost_simple_aut_limit_bounds_the_named_group(monkeypatch):
    # Sym7 (5040) is built under the default limit for Alt7 (2520)
    A, ids = closed_with_ids(catalog.almost_simple("alt7", limit=2520))
    assert (A.order, ids.size) == (5040, 2520)
    monkeypatch.setattr(catalog, "_pgammal", lambda *a: pytest.fail("Aut(S)'s rows built"))
    with pytest.raises(pc.TooLarge, match="PSL_3[(]4[)] has order 20160 > limit 20159"):
        catalog.almost_simple("psl(3,4)", limit=20159)


def test_resolve_autpsl34_builds_the_group():
    assert resolve("autpsl34").order == 241920


def test_the_line_lift_of_pg_2_11_takes_two_byte_line_images():
    # PG(2,11) has 133 points, so one-byte point rows lift to 266 points and
    # lines, past 256: the line images need uint16 whatever the input's type.
    # SL_3(11)'s generators only; PSL_3(11) is not closed
    F = make_field(11, 1)
    pts = catalog.projective_points(F, 3)
    rows = catalog.projective_perms(F, pts, catalog.sl_generators(F, 3))
    lift = catalog._line_lift(F, pts)
    narrow, wide = lift(rows.astype(np.uint8)), lift(rows.astype(np.uint16))
    assert len(pts) == 133 and narrow.dtype == wide.dtype == np.uint16
    assert np.array_equal(narrow, wide)
    assert np.array_equal(np.sort(narrow, axis=1), np.broadcast_to(np.arange(266), narrow.shape))
    cols = [0, 132, 133, 265]
    assert np.array_equal(lift(rows.astype(np.uint8), cols), wide[:, cols])


# -- coverage of the projective families ------------------------------------

def _prime_powers(bound):
    out = []
    for q in range(2, bound + 1):
        try:
            catalog._prime_power(q)
            out.append(q)
        except BadParameter:
            pass
    return out


def _degree(kind, d, q):
    """Points of the action: all of PG(d-1, q) for PSL/PGL, the isotropic
    points of PG(d-1, q^2) for PSU/PGU."""
    if kind in ("SU", "GU"):
        return (q ** d - (-1) ** d) * (q ** (d - 1) - (-1) ** (d - 1)) // (q * q - 1)
    return (q ** d - 1) // (q - 1)


def _covered():
    """Every PSL/PGL/PSU/PGU with d <= 4 and order <= 10^5.  Those whose
    element array exceeds 2*10^7 entries run under --runslow; none does
    since the unitary groups act on their isotropic points."""
    for d in (2, 3, 4):
        for q in _prime_powers(60):  # |PSL_2(q)| > 10^5 from q = 59 on
            for kind in ("SL", "GL", "SU", "GU"):
                order = projective_order(kind, d, q)
                if order <= 100_000:
                    marks = [pytest.mark.slow] if order * _degree(kind, d, q) > 2 * 10 ** 7 else []
                    yield pytest.param(kind, d, q, marks=marks,
                                       id=f"p{kind.lower()}({d},{q})")


@pytest.mark.parametrize("kind,d,q", list(_covered()))
def test_every_small_projective_group_closes_to_its_order(kind, d, q):
    G = projective_group(kind, d, q)
    assert G.order == projective_order(kind, d, q) and G.degree == _degree(kind, d, q)


@pytest.mark.parametrize("kind,order", [("SU", 126_000), ("GU", 378_000)])
def test_unitary_groups_over_f25(kind, order):
    assert projective_group(kind, 3, 5).order == order


def test_mcs_psu35():
    assert pc.mcs(projective_group("SU", 3, 5)) == 7


@pytest.mark.parametrize("example", [e for _, _, e in catalog.CATALOG_ENTRIES])
def test_catalog_examples_resolve(example):
    assert resolve(example).order > 1


# -- the unitary groups on their isotropic points, against all points ---------

def _all_points_group(kind, d, q):
    """PSU/PGU_d(q) on every point of PG(d-1, q^2), as the catalog built it
    before it kept the isotropic points only, and the isotropic points' indices."""
    p, f = catalog._prime_power(q)
    F = make_field(p, 2 * f)
    mats = su_generators(F, d)
    if kind == "GU":
        mats = np.concatenate([mats, catalog._diag(d, F.pow(F.primitive_element(), q - 1))])
    pts = catalog.projective_points(F, d)
    gens = catalog.projective_perms(F, pts, mats)
    return pc.close_group(gens), np.flatnonzero(hermitian_inner(F, pts, pts) == 0)


@pytest.mark.parametrize("kind,d,q", [
    ("GU", 3, 2), ("SU", 3, 3), ("GU", 4, 2), ("GU", 3, 4), ("SU", 2, 7)])
def test_isotropic_elements_are_the_all_points_elements_restricted(kind, d, q):
    # the old elements on the isotropic columns, renumbered in point order
    # and sorted, are the new elements byte for byte
    old, iso = _all_points_group(kind, d, q)
    label = np.full(old.degree, -1)
    label[iso] = np.arange(iso.size)
    rows = label[old.elements[:, iso]]
    assert rows.min() >= 0  # the isotropic points are permuted among themselves
    new = projective_group(kind, d, q).elements
    assert new.dtype == pc.point_dtype(iso.size)
    assert np.array_equal(new, rows[np.lexsort(rows.T[::-1])])


def _unitary_cases():
    """The unitary groups of `_covered`.  Those whose all-points element array
    exceeds 2*10^7 entries (13 of the PSU/PGU_2(q), 29 <= q <= 53, on q^2 + 1
    points) run under --runslow."""
    for case in _covered():
        kind, d, q = case.values
        if kind in ("SU", "GU"):
            every = (q ** (2 * d) - 1) // (q * q - 1)
            slow = projective_order(kind, d, q) * every > 2 * 10 ** 7
            yield pytest.param(kind, d, q, marks=[pytest.mark.slow] if slow else [], id=case.id)


@pytest.mark.parametrize("kind,d,q", list(_unitary_cases()))
def test_unitary_invariants_match_the_all_points_build(kind, d, q):
    new, (old, _) = projective_group(kind, d, q), _all_points_group(kind, d, q)
    assert new.order == old.order
    assert pc.mcs(new) == pc.mcs(old)
    assert sorted(pc.conjugacy_classes(new).sizes) == sorted(pc.conjugacy_classes(old).sizes)
    if new.order <= MAX_AUT_CARRIER:
        A, B = automorphism_group(new), automorphism_group(old)
        assert A.order == B.order
        assert maol(new, A).orbit_sizes == maol(old, B).orbit_sizes


# sha256 of the element arrays as built by the tables-and-polynomials catalog
# this array path replaced, hashed as uint16 rows, the type they were built in
# (each is uint8 now, under 256 points); reordered ids would change them.  The
# unitary ones are of the action on isotropic points, which the all-points
# build checks above
ELEMENT_DIGESTS = {
    "pgl(3,4)": "232c960f286ccf94232312e0547a1f60735ac934249f36e851d0900a9f75fb50",
    "pgu(3,2)": "748279c3a86cd1c7197bfc988797993f9809b3fe4e8fa089ec793487b185e72a",
    "pgu(3,4)": "2f37c09adad3989683f8598150710bce252da9291526eec0bc3489dce01a228c",
    "pgu(4,2)": "aee9f6adc40b4165d1cb5ed0bf5c9b844abc8759433dc5f8af0b3ea687dad339",
    "psu(3,3)": "0877d27479244ac9b339f251898aa8a1b5ea80f7b34af9bc9a5b0222ce8b3368",
    "psl(3,4)": "1f3c0cfc9ebf19184fc677b8fdb49af0b63cec888f8621eba12b82a061198d96",
}


@pytest.mark.parametrize("name", sorted(ELEMENT_DIGESTS))
def test_element_arrays_are_pinned(name):
    G = resolve(name)
    assert G.elements.dtype == np.uint8
    digest = hashlib.sha256(G.elements.astype(np.uint16).tobytes()).hexdigest()
    assert digest == ELEMENT_DIGESTS[name]


@pytest.mark.slow
def test_autpsl34_element_array_is_pinned(aut_psl34):
    assert aut_psl34.elements.dtype == np.uint8
    assert hashlib.sha256(aut_psl34.elements.astype(np.uint16).tobytes()).hexdigest() == (
        "da63d0fd8b23395bf4e00a41a0e8b09144b1b4dbb7bf0a487737286345f784b6")


# -- the array action against a point-by-point reference ---------------------

def _reference_points(F, d):
    """Nonzero vectors scaled to last nonzero coordinate 1, sorted."""
    pts = set()
    for v in itertools.product(range(F.q), repeat=d):
        if any(v):
            s = F.inv(v[max(i for i, x in enumerate(v) if x)])
            pts.add(tuple(F.mul(s, x) for x in v))
    return sorted(pts)


def _reference_images(F, pts, M, twist=lambda x: x):
    """v -> M twist(v) one point at a time, normalized and looked up."""
    index = {v: i for i, v in enumerate(pts)}
    out = []
    for v in pts:
        v = [twist(x) for x in v]
        w = []
        for row in M:
            acc = 0
            for a, x in zip(row, v):
                acc = F.add(acc, F.mul(int(a), x))
            w.append(acc)
        s = F.inv(w[max(i for i, x in enumerate(w) if x)])
        out.append(index[tuple(F.mul(s, x) for x in w)])
    return out


@pytest.mark.parametrize("kind,d,q", [("SL", 3, 4), ("GU", 3, 4), ("GU", 4, 2)])
def test_array_action_matches_pointwise_action(kind, d, q):
    if kind == "SL":
        F = make_field(2, 2)
        mats = catalog.sl_generators(F, d)
    else:
        F = make_field(2, 2 * q.bit_length() - 2)
        mu = F.pow(F.primitive_element(), q - 1)
        mats = np.concatenate([su_generators(F, d), catalog._diag(d, mu)])
    pts = catalog.projective_points(F, d)
    ref = _reference_points(F, d)
    assert pts.tolist() == [list(v) for v in ref]
    images = catalog.projective_perms(F, pts, mats)
    assert images.tolist() == [_reference_images(F, ref, M) for M in mats]


def test_frobenius_twist_matches_pointwise_action():
    F = make_field(3, 2)
    pts = catalog.projective_points(F, 2)
    ref = _reference_points(F, 2)
    identity = np.eye(2, dtype=np.int64)
    images = catalog.projective_perms(F, pts, identity[None], F.frobenius)
    assert images.tolist() == [_reference_images(F, ref, identity, F.frobenius)]
