import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from autorbit import multinomial as mn, permcore as pc, wreath as wr
from autorbit.multinomial import verify_lemma3_grids, pmf_bound_check
from autorbit.reports import encode_value
import wreath_oracle as wo
from multinomial_oracle import (BadComposition, TypeDistribution, descending_compositions,
                                lemma3_candidate_value, orbit_upper_bound, pmf, pmf_kernel,
                                r_value)


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


def test_descending_compositions_match_the_full_recursion():
    # the last part is yielded directly, not found by a scan down to a k = 0 hit
    for n in range(41):
        for k in range(6):
            for cap in [None, *range(42)]:
                assert (list(mn._descending_compositions(n, k, cap))
                        == list(descending_compositions(n, k, cap)))


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


def random_cases(samples, seed):
    """The random sweep's cases one at a time, as (k, d, parts, counts) with
    the zero padding past k cut off."""
    for K, D, _, P, C in mn.random_pmf_cases(samples, seed):
        for k, d, parts, counts in zip(K.tolist(), D.tolist(), P.tolist(), C.tolist()):
            yield k, d, parts[:k], counts[:k]


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
        for k, d, parts, counts in random_cases(samples, seed):
            run_case(tuple(Fraction(a, d) for a in parts), counts)
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


def double_the_kernels(monkeypatch):
    """Both modes read pmf_kernels (the random mode on object arrays, the
    exhaustive mode on int64); doubled, the bound fails on many cases."""
    kernels = mn.pmf_kernels
    monkeypatch.setattr(mn, "pmf_kernels", lambda A, C, coefs: 2 * kernels(A, C, coefs))


def test_pmf_bound_violation_records_match_fraction_reference(monkeypatch):
    double_the_kernels(monkeypatch)
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
        table = mn.pmf_kernels(np.array(numers, dtype=np.int64).reshape(-1, 1, k),
                               np.array(counts, dtype=np.int64), coefs)
        assert table.tolist() == [[pmf_kernel(a, cv) for cv in counts] for a in numers]
    # row against row on Python ints, past int64: 60^12 > 2^63
    numers, counts = [[60, 0], [59, 1], [0, 0]], [[12, 0], [6, 6], [0, 0]]
    coefs = np.array([mn.multinomial_coefficient(cv) for cv in counts], dtype=object)
    kernels = mn.pmf_kernels(np.array(numers, dtype=object), np.array(counts), coefs)
    assert kernels.tolist() == [pmf_kernel(a, cv) for a, cv in zip(numers, counts)]
    assert kernels.tolist()[0] == 60 ** 12


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


def test_pmf_bound_records_across_chunk_edges(monkeypatch):
    """Two whole chunks and one case more: every chunk is checked, and the
    records run on in sample order across the chunk edges."""
    double_the_kernels(monkeypatch)
    samples = 2 * mn.PMF_CHUNK + 1
    report = pmf_bound_check("random", samples=samples, seed=11)
    assert report["checked"] == samples
    assert report == reference_pmf_bound_check("random", samples=samples, seed=11, scale=2)
    over = [i for i, (k, d, parts, counts) in enumerate(random_cases(samples, 11))
            if 2 * fraction_pmf([Fraction(a, d) for a in parts], counts) > Fraction(max(parts), d)]
    assert len(over) == len(report["violations"])
    assert min(over) < mn.PMF_CHUNK <= max(over)


def test_random_pmf_cases_draws():
    chunks = list(mn.random_pmf_cases(6000, 2))
    assert [len(k) for k, *_ in chunks] == [mn.PMF_CHUNK, mn.PMF_CHUNK, 6000 - 2 * mn.PMF_CHUNK]
    k, d, n, parts, counts = (np.concatenate(a) for a in zip(*chunks))
    assert parts.shape == counts.shape == (6000, mn.PMF_MAX_K)
    assert (parts.sum(axis=1) == d).all() and (counts.sum(axis=1) == n).all()
    assert (parts >= 0).all() and (counts >= 0).all()
    assert set(k.tolist()) == set(range(1, mn.PMF_MAX_K + 1))
    assert set(d.tolist()) <= set(range(1, mn.PMF_SAMPLE_DENOM + 1))
    assert set(n.tolist()) == set(range(1, mn.PMF_SAMPLE_N + 1))
    past_k = np.arange(mn.PMF_MAX_K) >= k[:, None]
    assert not parts[past_k].any() and not counts[past_k].any()
    # a negative seed names the cases of its absolute value
    for a, b in zip(mn.random_pmf_cases(3000, -5), mn.random_pmf_cases(3000, 5)):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_pmf_bound_records_never_reach_the_padding(monkeypatch):
    double_the_kernels(monkeypatch)
    report = pmf_bound_check("random", samples=3000, seed=-5)
    assert report["seed"] == -5
    assert report["violations"] == pmf_bound_check("random", samples=3000, seed=5)["violations"]
    cases = {(tuple(encode_value([Fraction(a, d) for a in parts])), tuple(counts))
             for k, d, parts, counts in random_cases(3000, 5)}
    assert all((tuple(v["rho"]), tuple(v["counts"])) in cases for v in report["violations"])
    assert any(len(v["counts"]) < mn.PMF_MAX_K for v in report["violations"])


def test_pmf_bound_random_memory_stays_at_one_chunk():
    """The sweep holds one chunk of cases at a time: forty chunks peak no
    higher than two do, by the allocations tracemalloc counts."""
    pmf_bound_check("random", samples=1, seed=1)  # numpy.random loaded outside the trace
    peaks = []
    for samples in (2 * mn.PMF_CHUNK, 40 * mn.PMF_CHUNK):
        tracemalloc.start()
        try:
            pmf_bound_check("random", samples=samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]


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
    w = wg1.element((rep4,), np.arange(1))
    assert orbit_upper_bound(wg1, w, typing) == Fraction(1, 2)

    wg = wr.WreathGroup(A, 2)
    swap = np.array([1, 0])
    w = wg.element((rep4, 0), swap)
    assert orbit_upper_bound(wg, w, typing) == Fraction(1, 2)

    w = wg.element((rep4, rep4), np.arange(2))
    assert orbit_upper_bound(wg, w, typing) == Fraction(1, 4)


def test_orbit_upper_bound_dominates_sampled(alt5_aut, alt5_typing):
    # the full sweep is in the acceptance suite; here a seeded sample
    A = alt5_aut
    wg = wr.WreathGroup(A, 2)
    codes = wg.class_codes()
    sizes = np.bincount(codes)
    rng = np.random.default_rng(44)
    for code in rng.integers(wg.order, size=400):
        w = wo.unpack(wg, int(code))
        prop = Fraction(int(sizes[codes[code]]), wg.order)
        assert prop <= orbit_upper_bound(wg, w, alt5_typing)
