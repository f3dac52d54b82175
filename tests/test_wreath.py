from fractions import Fraction

import numpy as np
import pytest

from autorbit import catalog, permcore as pc, wreath as wr
from autorbit.autgrp import automorphism_group
from autorbit.permcore import parse_cycles
import wreath_oracle as wo


@pytest.fixture(scope="module")
def s3():
    return catalog.sym(3)


@pytest.fixture(scope="module")
def w32(s3):
    return wr.WreathGroup(s3, 2)


@pytest.fixture(scope="module")
def w33(s3):
    return wr.WreathGroup(s3, 3)


def test_group_laws(w32):
    rng = np.random.default_rng(7)
    e = wo.identity(w32)
    for _ in range(60):
        a, b, c = (wo.random_element(w32, rng) for _ in range(3))
        assert wo.mul(w32, e, b) == b
        assert wo.mul(w32, a, wo.inv(w32, a)) == e
        assert wo.inv(w32, wo.inv(w32, a)) == a
        assert wo.mul(w32, wo.mul(w32, a, b), c) == wo.mul(w32, a, wo.mul(w32, b, c))


def test_conjugation_entry_formula(s3, w32):
    # conj(((g1,g2),(0 1)) by ((k1,k2),id)) = ((k1 g1 k2^-1, k2 g2 k1^-1), (0 1))
    T, inv = s3.cayley(), s3.inverse_ids()
    swap = np.array([1, 0])
    rng = np.random.default_rng(3)
    for _ in range(40):
        g1, g2, k1, k2 = (int(x) for x in rng.integers(6, size=4))
        got = wo.conj(w32, w32.element((g1, g2), swap),
                       w32.element((k1, k2), np.arange(2)))
        assert got.top == w32.top.id_of(swap)
        assert got.base == (int(T[T[k1, g1], inv[k2]]), int(T[T[k2, g2], inv[k1]]))


def test_shape_mismatch(s3, w32):
    # a WreathElement is plain ids, so the length is checked where one is made
    with pytest.raises(wr.ShapeMismatch):
        w32.element((0, 0, 0), np.arange(2))
    with pytest.raises(pc.GroupError):
        w32.element((0, 0, 0), np.arange(3))
    with pytest.raises(pc.GroupError):  # a top of the wrong degree is not in the top group
        w32.element((0, 0), np.arange(3))


def test_bcpc_examples(s3, w33):
    table = pc.conjugacy_classes(s3)
    cls_3cycle = int(table.class_of[s3.id_of(parse_cycles("(1 2 3)", 3))])
    g12 = s3.id_of(parse_cycles("(1 2)", 3))
    g13 = s3.id_of(parse_cycles("(1 3)", 3))
    top = np.array([1, 2, 0])

    w = w33.element((g12, 0, g13), top)
    assert wr.bcpc(w33, w, (0, 1, 2)) == cls_3cycle  # (1 3) * e * (1 2) = (1 2 3)

    ident = w33.element((0, 0, 0), top)
    assert wr.bcpc(w33, ident, (0, 1, 2)) == 0

    w1 = w33.element((g12, g13, 0), np.arange(3))
    assert wr.bcpc(w33, w1, (0,)) == int(table.class_of[g12])  # 1-cycle: class of g_i


def test_bcpc_rejects_non_cycles(w33):
    w = w33.element((0, 0, 0), np.array([1, 2, 0]))
    with pytest.raises(wr.NotACycleOfTop):
        wr.bcpc(w33, w, (0, 2, 1))
    with pytest.raises(wr.NotACycleOfTop):
        wr.bcpc(w33, w, (0, 1))


def test_bcpc_rotation_invariance(w33):
    rng = np.random.default_rng(11)
    for _ in range(120):
        w = wo.random_element(w33, rng)
        for zeta in pc.cycle_decompose(w33.top.elements[w.top]):
            vals = {wr.bcpc(w33, w, zeta[r:] + zeta[:r]) for r in range(len(zeta))}
            assert len(vals) == 1


def test_profile_shapes(s3, w33):
    table = pc.conjugacy_classes(s3)
    g12 = s3.id_of(parse_cycles("(1 2)", 3))
    # identity top: M_1 holds the classes of all entries
    w = w33.element((g12, 0, g12), np.arange(3))
    prof = wr.profile(w33, w)
    c12 = int(table.class_of[g12])
    assert prof.by_length == {1: tuple(sorted((c12, 0, c12)))}
    # single 3-cycle top: exactly one entry in M_3
    w = w33.element((g12, 0, 0), np.array([1, 2, 0]))
    prof = wr.profile(w33, w)
    assert set(prof.by_length) == {3} and len(prof.by_length[3]) == 1
    # sum over l of l * |M_l| = n
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = wo.random_element(w33, rng)
        prof = wr.profile(w33, w)
        assert sum(l * len(m) for l, m in prof.by_length.items()) == 3


def test_profile_invariant_under_top_conjugation(w33):
    # M_l(w) = M_l(w^psi) for psi in the top group
    rng = np.random.default_rng(4)
    for _ in range(60):
        w = wo.random_element(w33, rng)
        psi = w33.top.elements[int(rng.integers(w33.top.order))]
        conj = wo.conj(w33, w, w33.element((0, 0, 0), psi))
        assert wr.profile(w33, w).by_length == wr.profile(w33, conj).by_length


def test_conj_test_trivial_cases(s3):
    w1 = wr.WreathGroup(s3, 1)
    table = pc.conjugacy_classes(s3)
    for g in range(6):
        for h in range(6):
            v = w1.element((g,), np.arange(1))
            w = w1.element((h,), np.arange(1))
            assert wr.conj_test(w1, v, w) == (table.class_of[g] == table.class_of[h])


def test_conj_test_reflexive_symmetric(w32):
    rng = np.random.default_rng(9)
    for _ in range(40):
        v, w = wo.random_element(w32, rng), wo.random_element(w32, rng)
        assert wr.conj_test(w32, v, v)
        assert wr.conj_test(w32, v, w) == wr.conj_test(w32, w, v)


def test_conj_test_transitive_on_chained_triples(w32):
    # build chained triples (v, v^a, v^b): v ~ v^a and v^a ~ v^b must chain
    rng = np.random.default_rng(10)
    for _ in range(40):
        v = wo.random_element(w32, rng)
        a, b = wo.random_element(w32, rng), wo.random_element(w32, rng)
        va, vb = wo.conj(w32, v, a), wo.conj(w32, v, b)
        assert wr.conj_test(w32, v, va) and wr.conj_test(w32, va, vb)
        assert wr.conj_test(w32, v, vb)


def test_brute_force_c2_wr_s2():
    c2 = catalog.cyclic(2)
    w = wr.WreathGroup(c2, 2)
    assert w.order == 8
    codes = w.class_codes()
    assert sorted(np.bincount(codes).tolist()) == [1, 1, 2, 2, 2]


@pytest.mark.parametrize("base_name,n", [("cyclic2", 2), ("cyclic3", 2),
                                         ("sym3", 2), ("sym3", 3)])
def test_conj_test_equals_brute_force_exhaustive(base_name, n):
    base = catalog.resolve(base_name)
    wg = wr.WreathGroup(base, n)
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
    assert sorted(map(tuple, brute.values())) == sorted(map(tuple, keys.values()))


def test_conj_test_equals_brute_force_sampled_s3_wr_s4():
    wg = wr.WreathGroup(catalog.sym(3), 4)
    assert wg.order == 31104
    rng = np.random.default_rng(123)
    disagreements = 0
    for _ in range(2000):
        v, w = wo.random_element(wg, rng), wo.random_element(wg, rng)
        if wr.conj_test(wg, v, w) != wr.brute_force_conj(wg, v, w):
            disagreements += 1
    assert disagreements == 0


def test_class_codes_under_an_intransitive_top():
    # <(0 1)> on 3 points has two orbits, {0, 1} and {2}: a base generator is
    # planted at 0 and at 2, and conjugation by (0 1) carries the first to 1
    wg = wr.WreathGroup(catalog.sym(3), 3, top=[[1, 0, 2]])
    planted = [base for base, psi in wg.standard_conjugators() if not np.any(psi - np.arange(3))]
    assert sorted(np.flatnonzero(base)[0] for base in planted) == [0, 0, 2, 2]
    assert np.array_equal(wg.class_codes(), wo.conjugation_classes(wg))


@pytest.mark.parametrize("base_name,n", [("sym4", 3), ("sym3", 4), ("alt4", 3)])
def test_class_codes_build_one_map_per_base_generator_and_top_generator(
        base_name, n, monkeypatch):
    # a transitive top: the two base generators in coordinate 0 and the two
    # top generators, where every coordinate's own would take 2n + 2
    wg = wr.WreathGroup(catalog.resolve(base_name), n)
    built = []
    real = wr.WreathGroup._conjugation_maps
    monkeypatch.setattr(wr.WreathGroup, "_conjugation_maps",
                        lambda self, conjugators: built.append(real(self, conjugators)) or built[-1])
    wg.class_codes()
    assert [len(maps) for maps in built] == [4]
    assert len(wo.all_coordinate_conjugators(wg)) == 2 * n + 2


def test_brute_force_cycle_type_mismatch(w32):
    v = w32.element((0, 0), np.arange(2))
    w = w32.element((0, 0), np.array([1, 0]))
    assert not wr.brute_force_conj(w32, v, w)
    assert not wr.conj_test(w32, v, w)


def test_too_large_guard():
    s5 = catalog.sym(5)
    wg = wr.WreathGroup(s5, 3, top=[[1, 2, 0]])
    with pytest.raises(wr.TooLarge):
        wg.class_codes(limit=1000)


def test_conj_test_vs_oracle_on_aut_alt5_base(alt5_aut):
    # richer base: Aut(Alt_5) wr Sym_2, sampled pairs plus conjugate pairs
    wg = wr.WreathGroup(alt5_aut, 2)
    rng = np.random.default_rng(55)
    for _ in range(300):
        v, w = wo.random_element(wg, rng), wo.random_element(wg, rng)
        assert wr.conj_test(wg, v, w) == wr.brute_force_conj(wg, v, w)
        k = wo.random_element(wg, rng)
        assert wr.conj_test(wg, v, wo.conj(wg, v, k))


def test_build_hp_p2(alt5_aut):
    hp = wr.build_hp(alt5_aut, 2)
    assert hp.order == 28800
    assert hp.predicted_orbit == 3600
    assert hp.measured_orbit == 3600
    assert hp.maol_lower_bound == Fraction(1, 8)
    assert Fraction(hp.measured_orbit, hp.order) == Fraction(1, 2) * Fraction(30, 120)


def test_build_hp_p3(alt5_aut):
    hp = wr.build_hp(alt5_aut, 3)
    assert hp.order == 5_184_000
    assert hp.predicted_orbit == 864_000
    assert hp.measured_orbit == 864_000


@pytest.mark.parametrize("p, predicted", [(5, 15_552), (7, 839_808)])
def test_build_hp_power_maps_past_p3(s3, p, predicted):
    # Sym3 wr C_p, closed under the power maps sigma -> sigma^2 (p = 5) and
    # sigma -> sigma^3 (p = 7): (p - 1) * |(1 2)^Sym3| * 6^(p - 1)
    hp = wr.build_hp(s3, p)
    assert hp.order == 6 ** p * p
    assert hp.measured_orbit == hp.predicted_orbit == predicted


def test_pack_unpack_and_draws_look_nothing_up(w33, monkeypatch):
    # a top is an id: packing, unpacking and drawing an element are arithmetic
    # and draws, with no element lookup
    calls = []
    for name in ("id_of", "ids_of"):
        method = getattr(pc.FiniteGroup, name)
        monkeypatch.setattr(pc.FiniteGroup, name,
                            lambda self, *args, name=name, method=method:
                            calls.append(name) or method(self, *args))
    rng = np.random.default_rng(21)
    codes = rng.integers(w33.order, size=50).tolist()
    elements = [wo.unpack(w33, code) for code in codes]
    packed = [w33.pack(w) for w in elements + [wo.random_element(w33, rng) for _ in range(50)]]
    assert calls == []
    assert packed[:50] == codes and all(type(w.top) is int for w in elements)


def _assert_unpack_inverts_pack(wg, codes):
    # each digit in range, so the digits are the code's own and not merely
    # some that pack back to it; and each code's digits are `wo.unpack`'s
    B, t = wg._unpack_codes(codes)
    assert B.shape == (wg.n, codes.size) and t.shape == codes.shape
    assert 0 <= B.min() and B.max() < wg.base.order and 0 <= t.min() and t.max() < wg.top.order
    assert np.array_equal(wg._pack_arrays(B, t), codes)
    for j in np.unique(np.linspace(0, codes.size - 1, 50).astype(int)).tolist():
        assert wo.unpack(wg, int(codes[j])) == wr.WreathElement(tuple(B[:, j].tolist()), int(t[j]))


@pytest.mark.parametrize("name", ["sym3-wr-s4", "alt4-wr-s3"])
def test_unpack_codes_inverts_pack_arrays_on_every_code(name):
    wg = TABLE_GROUPS[name]()
    _assert_unpack_inverts_pack(wg, np.arange(wg.order))


def test_unpack_codes_inverts_pack_arrays_at_the_ends_of_hp(alt5_aut):
    # Aut(A5) wr C3, the hp sweep's group: the least and the greatest codes
    wg = wr.WreathGroup(alt5_aut, 3, top=_cyclic_top(3))
    _assert_unpack_inverts_pack(wg, np.array([0, 1, wg.order - 2, wg.order - 1]))


# -- array-wide profiles ------------------------------------------------------

def _partition(keys):
    blocks = {}
    for index, key in enumerate(keys):
        blocks.setdefault(key, []).append(index)
    return sorted(blocks.values())


def _profile_keys(wg, codes):
    keys = []
    for code in codes:
        el = wo.unpack(wg, int(code))
        keys.append((pc.cycle_type(wg.top.elements[el.top]),
                     tuple(sorted(wr.profile(wg, el).by_length.items()))))
    return keys


@pytest.mark.parametrize("base_name,n", [("cyclic2", 2), ("sym3", 3),
                                         ("alt4", 3), ("sym4", 3)])
def test_profile_labels_match_per_element_profiles(base_name, n):
    wg = wr.WreathGroup(catalog.resolve(base_name), n)
    codes = np.arange(wg.order)
    labels = wg.profile_labels(codes)
    assert _partition(labels.tolist()) == _partition(_profile_keys(wg, codes))
    assert np.array_equal(labels, wo.column_profile_labels(wg, codes))


def test_profile_labels_cyclic_prime_top():
    # the top of build_hp: the cyclic group of a p-cycle
    p = 5
    wg = wr.WreathGroup(catalog.sym(3), p, top=_cyclic_top(p))
    codes = np.arange(wg.order)
    labels = wg.profile_labels(codes)
    assert _partition(labels.tolist()) == _partition(_profile_keys(wg, codes))
    assert np.array_equal(labels, wo.column_profile_labels(wg, codes))


def test_profile_labels_on_aut_alt5_base(alt5_aut):
    wg = wr.WreathGroup(alt5_aut, 2)
    rng = np.random.default_rng(500)
    codes = np.array([wg.pack(wo.random_element(wg, rng)) for _ in range(500)])
    labels = wg.profile_labels(codes)
    assert len(set(labels.tolist())) > 1
    assert _partition(labels.tolist()) == _partition(_profile_keys(wg, codes))
    assert np.array_equal(labels, wo.column_profile_labels(wg, codes))


def test_profile_labels_fold_a_row_past_62_bits_twice():
    # Sym3 wr C12: radix R = 3 * 13 + 1 = 40 and 40**12 > 2**62, so the first
    # key holds 11 columns and a second key the labels so far and the last
    wg = wr.WreathGroup(catalog.sym(3), 12, top=_cyclic_top(12))
    assert 40 ** 11 <= 2 ** 62 < 40 ** 12
    codes = wg.random_codes(np.random.default_rng(12), 2000)
    labels = wg.profile_labels(codes)
    assert np.array_equal(labels, wo.column_profile_labels(wg, codes))
    rows = np.sort(wg._bcpc_rows(codes, 40), axis=1)
    # the second fold splits rows that agree on their first 11 columns
    assert len(np.unique(rows[:, :11], axis=0)) < labels.max() + 1 == len(np.unique(rows, axis=0))
    some = np.arange(0, codes.size, 40)
    assert (_partition(labels[some].tolist())
            == _partition(_profile_keys(wg, codes[some])))


def test_profile_labels_of_no_codes():
    wg = wr.WreathGroup(catalog.sym(3), 3)
    assert wg.profile_labels(np.array([], dtype=np.int64)).size == 0


def _cyclic_top(p):
    return [[(i + 1) % p for i in range(p)]]


@pytest.mark.parametrize("seed", [17, 123])
def test_random_codes_draw_as_random_element(seed, alt5_aut):
    # the same codes from the same draws: both generators end in one state,
    # so a seeded report that draws after the codes does not move either.
    # Sym3 wr S1 has a top of order 1, whose integers(1) draws nothing;
    # Aut(A5) wr C3 draws from ranges 120 and 3.
    for wg in (wr.WreathGroup(catalog.sym(3), 4), wr.WreathGroup(catalog.sym(3), 1),
               wr.WreathGroup(alt5_aut, 3, top=_cyclic_top(3))):
        rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [wg.pack(wo.random_element(wg, rng2)) for _ in range(2000)]
        assert wg.random_codes(rng, 2000).tolist() == expected
        assert rng.bit_generator.state == rng2.bit_generator.state


# -- conjugation by lookup tables on packed codes ---------------------------

def _assert_tables_conjugate(wg, conjugators, codes):
    """Each map's table images of `codes` are pack(conj(unpack(c), k)).  The
    conjugate is taken in base wr Sym_n, which holds a top psi that only
    normalizes wg's top group; `lift` and `drop` carry top ids between the two."""
    full = wr.WreathGroup(wg.base, wg.n)
    lift = full.top.ids_of(wg.top.elements)
    drop = np.full(full.top.order, -1)
    drop[lift] = np.arange(wg.top.order)
    maps = wg._conjugation_maps(conjugators)
    elements = [wr.WreathElement(a.base, int(lift[a.top])) for a in (wo.unpack(wg, code) for code in codes.tolist())]
    for (kbase, psi), images in zip(conjugators, wg._conjugate_rows(wg._table_rows(codes), maps)):
        k = full.element(kbase, psi)
        conjugates = [wo.conj(full, a, k) for a in elements]
        tops = drop[[c.top for c in conjugates]]
        assert np.all(tops >= 0)  # psi normalizes the top group
        assert images.tolist() == [wg.pack(wr.WreathElement(c.base, int(t)))
                                   for c, t in zip(conjugates, tops)]


TABLE_GROUPS = {
    "sym3-wr-s4": lambda: wr.WreathGroup(catalog.sym(3), 4),
    "alt4-wr-s3": lambda: wr.WreathGroup(catalog.alt(4), 3),
    "sym3-wr-c5": lambda: wr.WreathGroup(catalog.sym(3), 5, top=_cyclic_top(5)),
}


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_code_tables_conjugate_sampled_codes(name):
    wg = TABLE_GROUPS[name]()
    codes = np.random.default_rng(19).integers(wg.order, size=300)
    _assert_tables_conjugate(wg, wo.all_coordinate_conjugators(wg), codes)


@pytest.mark.slow
@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_code_tables_conjugate_every_code(name):
    wg = TABLE_GROUPS[name]()
    _assert_tables_conjugate(wg, wo.all_coordinate_conjugators(wg), np.arange(wg.order))


def test_code_tables_conjugate_by_the_hp_conjugators(alt5_aut, monkeypatch):
    # build_hp's conjugators on Aut(A5) wr C3, taken as it hands them to the
    # sweep; they include the power map, which normalizes the top but is not in it
    class Captured(Exception):
        pass

    def capture(wg, seeds, conjugators):
        raise Captured(wg, list(conjugators))

    monkeypatch.setattr(wr.WreathGroup, "conjugation_orbit", capture)
    with pytest.raises(Captured) as caught:
        wr.build_hp(alt5_aut, 3)
    wg, conjugators = caught.value.args
    assert any(np.asarray(psi).tolist() not in wg.top.elements.tolist() for _, psi in conjugators)
    codes = np.random.default_rng(3).integers(wg.order, size=2000)
    _assert_tables_conjugate(wg, conjugators, codes)
