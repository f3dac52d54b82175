import random
from fractions import Fraction

import numpy as np
import pytest

from autorbit import multinomial as mn, permcore as pc, wreath as wr
from autorbit.multinomial import (BadComposition, lemma3_candidate_value, pmf,
                                  verify_lemma3_grids, pmf_bound_check)
from autorbit.permcore import Permutation
from autorbit.reports import encode_value
from multinomial_oracle import TypeDistribution, orbit_upper_bound, r_value


def test_r_value_basics():
    one = TypeDistribution(0, [0], [Fraction(1)], [5])
    assert r_value(one) == 1  # k = 1: normalization
    half = TypeDistribution(0, [0, 1], [Fraction(1, 2), Fraction(1, 2)], [1, 1])
    assert r_value(half) == Fraction(1, 2)


def test_type_distribution_validation():
    with pytest.raises(BadComposition):
        TypeDistribution(0, [0, 1], [Fraction(1, 2), Fraction(1, 3)], [1, 1])
    with pytest.raises(BadComposition):
        TypeDistribution(0, [0], [Fraction(1)], [-1])


@pytest.mark.parametrize("k,rho", [
    (2, (Fraction(1, 3), Fraction(2, 3))),
    (3, (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))),
    (4, (Fraction(1, 4),) * 4),
])
def test_pmf_normalization(k, rho):
    for n in range(1, 7):
        total = sum(pmf(rho, c) for c in mn._nonneg_compositions(n, k))
        assert total == 1


def test_lemma3_candidate_values():
    assert lemma3_candidate_value(3, (2, 1)) == Fraction(3, 4)
    assert lemma3_candidate_value(2, (1, 1)) == 2  # the excluded n=k=2 case
    assert lemma3_candidate_value(3, (1, 1, 1)) == Fraction(3, 2)  # excluded n=k=3
    assert lemma3_candidate_value(9, (9,)) == 1  # k = 1
    with pytest.raises(BadComposition):
        lemma3_candidate_value(4, (1, 2, 1))
    with pytest.raises(BadComposition):
        lemma3_candidate_value(4, (2, 1))


def test_lemma3_grids():
    report = verify_lemma3_grids()
    assert report["violations"] == []
    # ranges are exactly the quoted ones
    ks = {k for k, _ in mn.GRID_RANGES}
    assert ks == {2, 3, 4}
    dict_ranges = dict((k, ns) for k, ns in mn.GRID_RANGES)
    assert dict_ranges[4] == tuple(range(1, 10))
    assert 3 not in dict_ranges[3] and max(dict_ranges[3]) == 15
    assert dict_ranges[2] == tuple(range(10, 97))


def grid_compositions(ranges):
    return [(n, k, counts) for k, ns in ranges for n in ns
            for counts in mn._descending_compositions(n, k)]


def test_lemma3_integer_criterion_matches_the_fraction_value():
    cases = grid_compositions(mn.GRID_RANGES)
    assert len(cases) == verify_lemma3_grids()["checked"] == 2403
    for n, k, counts in cases:
        value = lemma3_candidate_value(n, counts)
        bound = (n - 1) ** (n - 1)
        assert Fraction(mn.lemma3_numerator(counts), bound) == value
        assert (mn.lemma3_numerator(counts) > bound) == (value > 1)


def test_lemma3_violation_records_match_the_fraction_route(monkeypatch):
    """With the excluded n = k = 2 and n = k = 3 put back in the grid, the
    sweep flags them as the Fraction values do, in grid order."""
    ranges = ((4, tuple(range(1, 10))), (3, tuple(range(1, 16))), (2, tuple(range(2, 97))))
    monkeypatch.setattr(mn, "GRID_RANGES", ranges)
    reference = [{"n": n, "k": k, "counts": list(counts),
                  "value": encode_value(lemma3_candidate_value(n, counts))}
                 for n, k, counts in grid_compositions(ranges)
                 if lemma3_candidate_value(n, counts) > 1]
    report = verify_lemma3_grids()
    assert report["violations"] == reference == [
        {"n": 3, "k": 3, "counts": [1, 1, 1], "value": "3/2"},
        {"n": 2, "k": 2, "counts": [1, 1], "value": "2/1"},
    ]
    assert report["checked"] == len(grid_compositions(ranges))


def test_pmf_bound_exhaustive():
    report = pmf_bound_check("exhaustive")
    assert report["violations"] == []
    # the equality case is inside the sweep
    assert pmf((Fraction(1, 2), Fraction(1, 2)), (1, 1)) == Fraction(1, 2)
    # single-outcome composition
    assert pmf((Fraction(1, 3), Fraction(2, 3)), (4, 0)) == Fraction(1, 81)
    assert pmf((Fraction(1, 3),) * 3, (1, 1, 1)) == Fraction(2, 9)


def fraction_pmf(rho, counts):
    value = Fraction(mn.multinomial_coefficient(counts))
    for r, c in zip(rho, counts):
        value *= Fraction(r) ** c
    return value


def reference_pmf_bound_check(mode="exhaustive", max_k=4, max_denom=6, max_n=8,
                              samples=0, seed=0, scale=1):
    """The sweep case by case in Fraction arithmetic, with the pmf scaled by
    `scale` (so that a scale > 1 produces violation records)."""
    checked = 0
    violations = []

    def run_case(rho, counts):
        nonlocal checked
        checked += 1
        value = scale * fraction_pmf(rho, counts)
        if value > max(rho):
            violations.append({
                "rho": [f"{r.numerator}/{r.denominator}" for r in rho],
                "counts": list(counts),
                "value": f"{value.numerator}/{value.denominator}",
            })

    if mode == "exhaustive":
        for k in range(1, max_k + 1):
            count_vectors = [cv for n in range(1, max_n + 1)
                             for cv in mn._nonneg_compositions(n, k)]
            seen = set()
            for d in range(1, max_denom + 1):
                for numer in mn._nonneg_compositions(d, k):
                    rho = tuple(Fraction(a, d) for a in numer)
                    if rho in seen:
                        continue
                    seen.add(rho)
                    for counts in count_vectors:
                        run_case(rho, counts)
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            k = rng.randint(1, max_k)
            d = rng.randint(1, 60)
            cuts = sorted(rng.randint(0, d) for _ in range(k - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
            rho = tuple(Fraction(a, d) for a in parts)
            n = rng.randint(1, 12)
            counts = mn.random_composition(rng, n, k)
            run_case(rho, counts)
    result = {"checked": checked, "violations": violations}
    if mode == "random":
        result["seed"] = seed
    return result


def test_pmf_bound_exhaustive_matches_fraction_reference():
    report = pmf_bound_check("exhaustive")
    assert report["checked"] == 89134
    assert report == reference_pmf_bound_check("exhaustive")


@pytest.mark.parametrize("seed", range(5))
def test_pmf_bound_random_matches_fraction_reference(seed):
    assert (pmf_bound_check("random", samples=2000, seed=seed)
            == reference_pmf_bound_check("random", samples=2000, seed=seed))


def test_pmf_bound_violation_records_match_fraction_reference(monkeypatch):
    # the random mode reads pmf_kernel, the exhaustive mode its int64 array form
    kernel, kernels = mn.pmf_kernel, mn.pmf_kernels
    monkeypatch.setattr(mn, "pmf_kernel", lambda numer, counts: 2 * kernel(numer, counts))
    monkeypatch.setattr(mn, "pmf_kernels", lambda A, C, coefs: 2 * kernels(A, C, coefs))
    report = pmf_bound_check("random", samples=300, seed=3)
    assert report["violations"]
    assert report == reference_pmf_bound_check("random", samples=300, seed=3, scale=2)
    # a smaller exhaustive sweep, so the Fraction reference stays quick
    for name, value in (("PMF_MAX_K", 3), ("PMF_MAX_DENOM", 4), ("PMF_MAX_N", 4)):
        monkeypatch.setattr(mn, name, value)
    report = pmf_bound_check("exhaustive")
    assert report["violations"]
    assert report == reference_pmf_bound_check("exhaustive", max_k=3, max_denom=4,
                                               max_n=4, scale=2)


def test_pmf_kernels_match_pmf_kernel():
    for k in range(1, mn.PMF_MAX_K + 1):
        counts = [cv for n in range(1, mn.PMF_MAX_N + 1) for cv in mn._nonneg_compositions(n, k)]
        numers = list(mn._nonneg_compositions(mn.PMF_MAX_DENOM, k))
        coefs = np.array([mn.multinomial_coefficient(cv) for cv in counts], dtype=np.int64)
        table = mn.pmf_kernels(np.array(numers, dtype=np.int64).reshape(-1, k),
                               np.array(counts, dtype=np.int64), coefs)
        assert table.tolist() == [[mn.pmf_kernel(a, cv) for cv in counts] for a in numers]


@pytest.mark.parametrize("denom, max_n", [(1000, 8), (6, 24), (2, 62)])
def test_pmf_bound_refuses_a_grid_past_int64(monkeypatch, denom, max_n):
    """denom^(max_n + 1) >= 2^63: the exhaustive sweep raises before it builds
    an array, instead of comparing wrapped int64 values."""
    monkeypatch.setattr(mn, "PMF_MAX_DENOM", denom)
    monkeypatch.setattr(mn, "PMF_MAX_N", max_n)
    monkeypatch.setattr(mn, "pmf_kernels", None)  # never reached
    with pytest.raises(OverflowError):
        pmf_bound_check("exhaustive")


def test_pmf_bound_is_exact_up_to_the_int64_bound(monkeypatch):
    # 2^(61 + 1) < 2^63: the grid at the bound runs, and agrees with Fraction
    for name, value in (("PMF_MAX_K", 2), ("PMF_MAX_DENOM", 2), ("PMF_MAX_N", 61)):
        monkeypatch.setattr(mn, name, value)
    assert pmf_bound_check("exhaustive") == reference_pmf_bound_check(
        "exhaustive", max_k=2, max_denom=2, max_n=61)


def test_pmf_matches_fraction_formula():
    rng = random.Random(8)
    for _ in range(300):
        k = rng.randint(1, 4)
        rho = [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(k)]
        counts = [rng.randint(0, 5) for _ in range(k)]
        assert pmf(rho, counts) == fraction_pmf(rho, counts)
    assert pmf([1, Fraction(0)], [3, 0]) == 1


def test_pmf_bound_random_seeded():
    r1 = pmf_bound_check("random", samples=500, seed=5)
    r2 = pmf_bound_check("random", samples=500, seed=5)
    assert r1 == r2
    assert r1["violations"] == []


def test_orbit_upper_bound_examples(alt5_aut, alt5_typing):
    A = alt5_aut
    typing = alt5_typing
    table = pc.conjugacy_classes(A)
    c4 = max(range(len(table.classes)), key=lambda c: table.sizes[c])
    assert table.sizes[c4] == 30
    rep4 = table.representative(c4)

    # n = 1: bound is rho of the class
    wg1 = wr.WreathGroup(A, 1)
    w = wg1.element((rep4,), Permutation.identity(1))
    assert orbit_upper_bound(wg1, w, typing) == Fraction(1, 2)

    wg = wr.WreathGroup(A, 2)
    swap = Permutation([1, 0])
    w = wg.element((rep4, 0), swap)
    assert orbit_upper_bound(wg, w, typing) == Fraction(1, 2)

    w = wg.element((rep4, rep4), Permutation.identity(2))
    assert orbit_upper_bound(wg, w, typing) == Fraction(1, 4)


def test_orbit_upper_bound_dominates_sampled(alt5_aut, alt5_typing):
    # the full sweep is in the acceptance suite; here a seeded sample
    A = alt5_aut
    wg = wr.WreathGroup(A, 2)
    codes = wg.class_codes()
    sizes = np.bincount(codes)
    rng = np.random.default_rng(44)
    for code in rng.integers(wg.order, size=400):
        w = wg.unpack(int(code))
        prop = Fraction(int(sizes[codes[code]]), wg.order)
        assert prop <= orbit_upper_bound(wg, w, alt5_typing)
