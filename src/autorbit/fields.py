"""Finite fields F_{p^f} with a deterministic modulus choice.

Elements are integers in 0..p^f-1: the element with polynomial-basis
coefficients (c_0, ..., c_{f-1}) is sum(c_i * p^i), and `_digits` alone
decodes it.  The modulus is the first monic irreducible of degree f in that
encoding of its lower coefficients, so fields agree across runs and platforms.

Every field up to 2^20 elements has one representation: exp/log tables of
the first primitive element, built once from the polynomial arithmetic below
with one array row per digit.  Products, inverses and powers are lookups;
sums work digit by digit (XOR when p = 2), on ints or numpy arrays alike.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

from .permcore import TooLarge

MAX_FIELD_SIZE = 2 ** 20


class FieldError(Exception):
    pass


class NotPrime(FieldError):
    pass


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _digits(a: int, p: int, f: int) -> tuple:
    """The f base-p digits of a, least significant first: its coefficients."""
    return tuple(a // p ** i % p for i in range(f))


def _poly_mulmod(a: tuple, b: tuple, mod: tuple, p: int) -> tuple:
    """Product of coefficient tuples reduced mod the monic polynomial `mod`
    (mod is given as its full coefficient tuple, leading coefficient 1)."""
    f = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for k in range(len(res) - 1, f - 1, -1):
        c = res[k]
        if c:
            res[k] = 0
            for j in range(f):
                res[k - f + j] = (res[k - f + j] - c * mod[j]) % p
    out = res[:f]
    out.extend([0] * (f - len(out)))
    return tuple(out)


def _poly_powmod(a: tuple, e: int, mod: tuple, p: int) -> tuple:
    f = len(mod) - 1
    result = tuple([1] + [0] * (f - 1))
    base = a
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd_is_one(a: list, b: list, p: int) -> bool:
    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        while len(a) >= len(b) and a:
            c = (a[-1] * inv_lead) % p
            shift = len(a) - len(b)
            for j in range(len(b)):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            trim(a)
        a, b = b, a
    return len(a) == 1  # nonzero constant


def _prime_divisors(n: int) -> list[int]:
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(lower: tuple, p: int) -> bool:
    """Rabin test for the monic polynomial with the given lower coefficients:
    x^(p^f) == x mod m, and gcd(x^(p^(f/r)) - x, m) = 1 for primes r | f."""
    f = len(lower)
    if f == 1:
        return True
    mod = lower + (1,)
    x = tuple([0, 1] + [0] * (f - 2))
    if _poly_powmod(x, p ** f, mod, p) != x:
        return False
    for r in _prime_divisors(f):
        xe = _poly_powmod(x, p ** (f // r), mod, p)
        diff = [(xe[i] - x[i]) % p for i in range(f)]
        if not _poly_gcd_is_one(diff, list(mod), p):
            return False
    return True


def _canonical_modulus(p: int, f: int) -> tuple:
    """Lowest-encoded monic irreducible of degree f (tuple of the f lower
    coefficients; the x^f coefficient is implicitly 1)."""
    for enc in range(p ** f):
        coeffs = _digits(enc, p, f)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise FieldError(f"no irreducible polynomial of degree {f} over F_{p}?")


class Field:
    """F_{p^f}; element handles are ints in 0..q-1, and every operation takes
    ints or integer numpy arrays (broadcast) alike.

    `exp[k]` is g^k for the primitive element g, stored twice over so a sum
    of two logs needs no reduction; `log[0]` is 2(q-1), which sends any sum
    of logs that involves 0 into the zero tail of `exp`."""

    def __init__(self, p: int, f: int):
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = _canonical_modulus(p, f)
        n = self.q - 1
        self._g = self._first_primitive()
        powers = np.ones(1, dtype=np.int64)
        while powers.size < n:  # g^(m..2m-1) = g^(0..m-1) * g^m
            step = self._times(powers, self._poly_pow(self._g, powers.size))
            powers = np.concatenate([powers, step[: n - powers.size]])
        self.exp = np.concatenate([powers, powers, np.zeros(2 * n + 1, np.int64)])
        self.log = np.empty(self.q, dtype=np.int64)
        self.log[powers] = np.arange(n)
        self.log[0] = 2 * n

    # -- construction, on polynomial coefficient tuples ---------------

    def _poly_mul(self, a: int, b: int) -> int:
        return self.encode(_poly_mulmod(self.coeffs(a), self.coeffs(b),
                                        self.modulus + (1,), self.p))

    def _poly_pow(self, a: int, e: int) -> int:
        return self.encode(_poly_powmod(self.coeffs(a), e, self.modulus + (1,), self.p))

    def _first_primitive(self) -> int:
        n = self.q - 1
        divs = _prime_divisors(n)
        for g in range(1, self.q):
            if all(self._poly_pow(g, n // r) != 1 for r in divs):
                return g
        raise FieldError("no primitive element found")

    def _times(self, x: np.ndarray, c: int) -> np.ndarray:
        """x * c for an array x: the sum over the digits t of x of t * X^k * c,
        the row of every t at once from the digits of X^k * c."""
        out, t, place = np.zeros_like(x), np.arange(self.p)[:, None], self.p ** np.arange(self.f)
        for k in range(self.f):
            row = t * np.array(self.coeffs(self._poly_mul(self.p ** k, c))) % self.p @ place
            out = self.add(out, np.take(row, x // self.p ** k % self.p))
        return out

    # -- encoding --------------------------------------------------------

    def coeffs(self, a: int) -> tuple:
        return _digits(a, self.p, self.f)

    def encode(self, coeffs) -> int:
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + (c % self.p)
        return val

    # -- arithmetic ------------------------------------------------------

    def add(self, a, b):
        return self._digitwise(a, b, 1)

    def sub(self, a, b):
        return self._digitwise(a, b, -1)

    def _digitwise(self, a, b, sign: int):
        """a + sign * b digit by digit; XOR when p = 2."""
        if self.p == 2:
            return a ^ b
        out, place = 0, 1
        for _ in range(self.f):
            out = out + (a // place + sign * (b // place)) % self.p * place
            place *= self.p
        return out

    def sum(self, a: np.ndarray, axis: int = -1):
        """Field sum of an array along one axis."""
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        out, place = 0, 1
        for _ in range(self.f):
            out = out + (a // place % self.p).sum(axis=axis) % self.p * place
            place *= self.p
        return out

    def mul(self, a, b):
        return _plain(self.exp[self.log[a] + self.log[b]])

    def pow(self, a, e: int):
        n = self.q - 1
        return _plain(np.where(a == 0, int(e == 0),
                               self.exp[self.log[a] * (e % n) % n]))

    def inv(self, a):
        if not np.all(a):
            raise ZeroDivisionError("field inverse of 0")
        return _plain(self.exp[self.q - 1 - self.log[a]])

    def frobenius(self, a):
        """a -> a^p."""
        return self.pow(a, self.p)

    def conj(self, a):
        """For a field of square order p^(2m): a -> a^(p^m), the involution
        used for Hermitian forms."""
        if self.f % 2 != 0:
            raise FieldError("conjugation needs a field of square order")
        return self.pow(a, self.p ** (self.f // 2))

    def primitive_element(self) -> int:
        """The first element of order q - 1 in the integer encoding."""
        return self._g

    def __repr__(self) -> str:
        return f"Field(GF({self.p}^{self.f}))"


def _plain(x):
    """A Python int for a scalar result, the array itself otherwise."""
    return x if np.ndim(x) else int(x)


@lru_cache(maxsize=None)
def make_field(p: int, f: int) -> Field:
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if f < 1:
        raise FieldError("extension degree must be positive")
    if p ** f > MAX_FIELD_SIZE:
        raise TooLarge(f"field size {p}^{f} exceeds {MAX_FIELD_SIZE}")
    return Field(p, f)
