"""Exact multinomial machinery: the two computer-checked verification sweeps
(the Lagrange-point grid and the pmf <= max success probability bound).

Everything is exact: integers over a common denominator ((n-1)^(n-1) on the
grid, int64 arrays where their bound fits) and `fractions.Fraction` values in
the reports; no floats and no tolerances anywhere."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd
from typing import Sequence

import numpy as np

from .reports import encode_value


def multinomial_coefficient(counts: Sequence[int]) -> int:
    total, out = 0, 1
    for c in counts:
        total += c
        out *= comb(total, c)
    return out


# -- the Lagrange-point grid ---------------------------------------------------

def _descending_compositions(n: int, k: int, cap: int | None = None):
    """Partitions of n into exactly k positive non-increasing parts."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:  # the last part is n itself, if it is a part under the cap
        if 0 < n <= (n if cap is None else cap):
            yield (n,)
        return
    first_cap = n - (k - 1) if cap is None else min(cap, n - (k - 1))
    for first in range(first_cap, 0, -1):
        for rest in _descending_compositions(n - first, k - 1, cap=first):
            yield (first,) + rest


GRID_RANGES = (
    (4, tuple(range(1, 10))),                      # k=4, n in 1..9
    (3, tuple(x for x in range(1, 16) if x != 3)),  # k=3, n in 1..15 minus 3
    (2, tuple(range(10, 97))),                      # k=2, n in 10..96
)


def lemma3_numerator(counts: Sequence[int]) -> int:
    """(n-1)^(n-1) f(p): f(x) = M x_1^(l_1-1) x_2^l_2 ... x_k^l_k, M the multinomial
    coefficient of l = `counts`, k >= 2, peaks on the simplex at the Lagrange point
    p = ((l_1-1)/(n-1), l_2/(n-1), ..., l_k/(n-1)), 0^0 = 1; p's coordinates share
    the denominator n-1, so this is the integer M (l_1-1)^(l_1-1) l_2^l_2 ... l_k^l_k."""
    value = multinomial_coefficient(counts) * (counts[0] - 1) ** (counts[0] - 1)
    for c in counts[1:]:
        value *= c ** c
    return value


def verify_lemma3_grids() -> dict:
    """Check f <= 1 at the Lagrange point for every composition in the three
    grid ranges, as lemma3_numerator <= (n-1)^(n-1) on integers.  Expected:
    zero violations."""
    checked = 0
    violations = []
    for k, ns in GRID_RANGES:
        for n in ns:
            bound = (n - 1) ** (n - 1)
            for counts in _descending_compositions(n, k):
                checked += 1
                top = lemma3_numerator(counts)
                if top > bound:
                    violations.append({"n": n, "k": k, "counts": list(counts),
                                       "value": encode_value(Fraction(top, bound))})
    return {"checked": checked, "violations": violations}


# -- pmf bounded by the max success probability --------------------------------

def _nonneg_compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _nonneg_compositions(n - first, k - 1):
            yield (first,) + rest


PMF_MAX_K = 4          # classes per rho vector, both modes
PMF_MAX_DENOM = 6      # common denominator of rho, exhaustive mode
PMF_MAX_N = 8          # total count, exhaustive mode
PMF_SAMPLE_DENOM = 60  # random mode: d uniform on 1..PMF_SAMPLE_DENOM
PMF_SAMPLE_N = 12      # random mode: n uniform on 1..PMF_SAMPLE_N
PMF_CHUNK = 2048       # random mode: cases drawn and checked at a time
_FACTORIALS = np.array([factorial(i) for i in range(PMF_SAMPLE_N + 1)], dtype=np.int64)


def pmf_kernels(numers: np.ndarray, counts: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """The pmf at `counts` times d^n when rho = numers / d, on broadcast rows:
    coefs * prod numers^counts over the last axis, coefs the multinomial
    coefficients; 0^0 = 1, so zero-probability classes with zero count are
    neutral.  The exhaustive mode pairs every numerator row with every count
    row on int64; the random mode pairs row i with row i on Python ints."""
    return coefs * np.prod(numers ** counts, axis=-1)


def random_pmf_cases(samples: int, seed: int):
    """The random mode's cases, PMF_CHUNK at a time, as arrays (k, d, n, parts,
    counts): k, d and n uniform on 1..PMF_MAX_K, 1..PMF_SAMPLE_DENOM and
    1..PMF_SAMPLE_N, parts the gaps between k - 1 sorted cuts uniform on 0..d,
    counts n equally likely draws among k classes, both zero past column k."""
    rng = np.random.default_rng(abs(seed))  # --seed -S checks the cases of --seed S
    for start in range(0, samples, PMF_CHUNK):
        m = min(PMF_CHUNK, samples - start)
        k = rng.integers(1, PMF_MAX_K + 1, size=m)
        d = rng.integers(1, PMF_SAMPLE_DENOM + 1, size=m)
        n = rng.integers(1, PMF_SAMPLE_N + 1, size=m)
        cuts = rng.integers(0, d[:, None] + 1, size=(m, PMF_MAX_K - 1))
        cuts = np.sort(np.where(np.arange(PMF_MAX_K - 1) < k[:, None] - 1, cuts, d[:, None]))
        parts = np.diff(cuts, prepend=0, append=d[:, None])
        counts = np.zeros((m, PMF_MAX_K), dtype=np.int64)
        for j in range(1, PMF_MAX_K + 1):
            rows = k == j
            counts[rows, :j] = rng.multinomial(n[rows], [1 / j] * j)
        yield k, d, n, parts, counts


def pmf_bound_check(mode: str = "exhaustive", samples: int = 0, seed: int = 0) -> dict:
    """Check pmf(rho, counts) <= max(rho).

    exhaustive: every rho vector with a common denominator <= PMF_MAX_DENOM
    (k <= PMF_MAX_K, zero entries allowed) against every count vector with
    1 <= n <= PMF_MAX_N (zeros allowed).  random: the seeded cases of
    `random_pmf_cases` and the same assertion.  Each case is rho = a / d on
    integers: the pmf is the kernel K = `pmf_kernels`(a, counts) over d^n, so
    the bound fails iff K * d > max(a) * d^n.  The exhaustive mode compares on
    int64 arrays, one (k, d) block at a time; the kernel is at most d^n, so
    neither side exceeds d^(n+1).  The random mode, whose d^(n+1) passes
    2^63, compares a chunk at a time on object arrays of Python ints, the
    coefficient n! / prod c_i! from a factorial table; 0^0 = 1 makes the
    zero padding neutral."""
    checked = 0
    violations = []

    def record(numer, d, counts, kernel, scale):
        violations.append({
            "rho": encode_value([Fraction(a, d) for a in numer]),
            "counts": list(counts),
            "value": encode_value(Fraction(kernel, scale)),
        })

    if mode == "exhaustive":
        if PMF_MAX_DENOM ** (PMF_MAX_N + 1) >= 2 ** 63:
            raise OverflowError(f"{PMF_MAX_DENOM}^{PMF_MAX_N + 1} does not fit in int64")
        for k in range(1, PMF_MAX_K + 1):
            count_vectors = [cv for n in range(1, PMF_MAX_N + 1)
                             for cv in _nonneg_compositions(n, k)]
            C = np.array(count_vectors, dtype=np.int64)
            coefs = np.array([multinomial_coefficient(cv) for cv in count_vectors], dtype=np.int64)
            for d in range(1, PMF_MAX_DENOM + 1):
                scales = d ** C.sum(axis=1)
                # a / d with g = gcd(a) > 1 is the rho vector (a/g) / (d/g),
                # already checked at the smaller denominator
                A = np.array([a for a in _nonneg_compositions(d, k) if gcd(*a) == 1],
                             dtype=np.int64).reshape(-1, k)
                kernel = pmf_kernels(A[:, None], C, coefs)
                checked += kernel.size
                over = kernel * d > A.max(axis=1)[:, None] * scales
                for i, j in np.argwhere(over).tolist():  # row-major: numerators, then counts
                    record(A[i].tolist(), d, count_vectors[j], int(kernel[i, j]), int(scales[j]))
    elif mode == "random":
        for k, d, n, parts, counts in random_pmf_cases(samples, seed):
            coefs = _FACTORIALS[n] // np.prod(_FACTORIALS[counts], axis=1)
            kernel = pmf_kernels(parts.astype(object), counts, coefs.astype(object))
            scales = d.astype(object) ** n
            checked += len(k)
            over = kernel * d > parts.max(axis=1) * scales
            for i in np.flatnonzero(over).tolist():  # in sample order
                record(parts[i, :k[i]].tolist(), int(d[i]), counts[i, :k[i]].tolist(),
                       kernel[i], scales[i])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result = {"checked": checked, "violations": violations}
    if mode == "random":
        result["seed"] = seed
    return result
