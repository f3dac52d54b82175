import random

import numpy as np
import pytest

from autorbit import fields
from autorbit.fields import make_field


def test_prime_fields():
    F2 = make_field(2, 1)
    assert F2.q == 2
    F3 = make_field(3, 1)
    assert F3.add(2, 2) == 1 and F3.mul(2, 2) == 1


def test_f4_canonical_modulus_and_example():
    F4 = make_field(2, 2)
    assert F4.q == 4
    assert F4.modulus == (1, 1)  # x^2 + x + 1
    x = F4.encode([0, 1])
    assert F4.mul(x, x) == F4.add(x, 1)  # x*x = x+1


def test_f8():
    F8 = make_field(2, 3)
    assert F8.q == 8
    assert len(set(F8.mul(3, a) for a in range(8))) == 8


def test_errors():
    with pytest.raises(fields.NotPrime):
        make_field(6, 1)
    with pytest.raises(fields.TooLarge):
        make_field(2, 21)
    with pytest.raises(fields.FieldError):
        make_field(5, 0)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, f):
    F = make_field(p, f)
    els = list(range(F.q))
    for a in els:
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("p,f", [(5, 2), (3, 3), (2, 5)])
def test_field_axioms_sampled(p, f):
    F = make_field(p, f)
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_frobenius_and_conjugation():
    F16 = make_field(2, 4)
    for a in range(F16.q):
        assert F16.frobenius(a) == F16.mul(a, a)
        assert F16.conj(F16.conj(a)) == a  # involution on a square-order field
    F9 = make_field(3, 2)
    # conj fixes exactly the prime subfield F_3
    fixed = [a for a in range(F9.q) if F9.conj(a) == a]
    assert len(fixed) == 3


def test_primitive_element():
    for p, f in [(2, 2), (3, 2), (2, 4), (5, 1)]:
        F = make_field(p, f)
        g = F.primitive_element()
        seen = set()
        acc = 1
        for _ in range(F.q - 1):
            acc = F.mul(acc, g)
            seen.add(acc)
        assert len(seen) == F.q - 1


def _least_primitive_root(p):
    """The least u >= 1 whose multiplicative order mod p is p - 1."""
    for u in range(1, p):
        x, order = u, 1
        while x != 1:
            x, order = x * u % p, order + 1
        if order == p - 1:
            return u


def test_prime_field_primitive_element_is_the_least_primitive_root():
    # the hp construction takes its power map sigma -> sigma^u from F_p
    primes = [p for p in range(2, 500) if all(p % d for d in range(2, p))]
    assert len(primes) == 95
    assert ([make_field(p, 1).primitive_element() for p in primes]
            == [_least_primitive_root(p) for p in primes])


@pytest.mark.parametrize("p,f", [(65521, 1), (3, 7), (5, 4), (13, 2)])
def test_exp_log_tables_are_the_powers_of_the_primitive_element(p, f):
    # the tables against powers taken one polynomial product at a time
    F = make_field(p, f)
    mod, g = F.modulus + (1,), F.coeffs(F.primitive_element())
    powers, acc = [], (1,) + (0,) * (f - 1)
    for _ in range(F.q - 1):
        powers.append(F.encode(acc))
        acc = fields._poly_mulmod(acc, g, mod, p)
    assert acc == (1,) + (0,) * (f - 1) and len(set(powers)) == F.q - 1
    assert F.exp.tolist() == powers * 2 + [0] * (2 * F.q - 1)
    log = [2 * (F.q - 1)] * F.q
    for k, x in enumerate(powers):
        log[x] = k
    assert F.log.tolist() == log


def _poly_pairs(F, pairs):
    """Reference sums and products of (a, b) pairs on coefficient tuples."""
    mod = F.modulus + (1,)
    adds = [F.encode((x + y) % F.p for x, y in zip(F.coeffs(a), F.coeffs(b)))
            for a, b in pairs]
    muls = [F.encode(fields._poly_mulmod(F.coeffs(a), F.coeffs(b), mod, F.p))
            for a, b in pairs]
    return adds, muls


@pytest.mark.parametrize("p,f,samples", [(2, 2, None), (3, 2, None), (2, 4, None),
                                         (5, 2, None), (23, 2, 2000), (2, 10, 2000)])
def test_array_ops_match_polynomial_arithmetic(p, f, samples):
    F = make_field(p, f)
    if samples is None:
        pairs = [(a, b) for a in range(F.q) for b in range(F.q)]
    else:
        rng = random.Random(p * 1000 + f)
        pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(samples)]
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    adds, muls = _poly_pairs(F, pairs)
    assert F.add(a, b).tolist() == adds
    assert F.mul(a, b).tolist() == muls
    assert [F.mul(int(x), int(y)) for x, y in pairs[:50]] == muls[:50]
    nz = a[a != 0]
    _, back = _poly_pairs(F, list(zip(nz.tolist(), F.inv(nz).tolist())))
    assert back == [1] * nz.size
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
