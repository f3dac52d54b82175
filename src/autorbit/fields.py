"""Finite fields F_{p^f} with a deterministic modulus choice.

Elements are encoded as integers in 0..p^f-1: the element with polynomial-basis
coefficients (c_0, c_1, ..., c_{f-1}) is sum(c_i * p^i).  The modulus is the
first irreducible monic polynomial of degree f in that same integer encoding
of its lower coefficients, so fields are identical across runs and platforms.

Fields up to 512 elements precompute full addition/multiplication tables;
larger fields (allowed up to 2^20) fall back to polynomial arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .permcore import TooLarge

MAX_FIELD_SIZE = 2 ** 20
TABLE_LIMIT = 512


class FieldError(Exception):
    pass


class NotPrime(FieldError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
        coeffs = []
        v = enc
        for _ in range(f):
            coeffs.append(v % p)
            v //= p
        if _is_irreducible(tuple(coeffs), p):
            return tuple(coeffs)
    raise FieldError(f"no irreducible polynomial of degree {f} over F_{p}?")


class Field:
    """F_{p^f}; element handles are plain ints in 0..q-1."""

    def __init__(self, p: int, f: int):
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = _canonical_modulus(p, f)
        self._mul_table = None
        self._add_table = None
        if self.q <= TABLE_LIMIT:
            self._build_tables()

    def _build_tables(self):
        q = self.q
        add = np.empty((q, q), dtype=np.int32)
        mul = np.empty((q, q), dtype=np.int32)
        coeffs = [self.coeffs(a) for a in range(q)]
        mod = self.modulus + (1,)
        for a in range(q):
            for b in range(a, q):
                s = self.encode((x + y) % self.p for x, y in zip(coeffs[a], coeffs[b]))
                m = self.encode(_poly_mulmod(coeffs[a], coeffs[b], mod, self.p))
                add[a, b] = add[b, a] = s
                mul[a, b] = mul[b, a] = m
        self._add_table = add
        self._mul_table = mul

    # -- scalar ops ----------------------------------------------------

    def coeffs(self, a: int) -> tuple:
        out = []
        for _ in range(self.f):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, coeffs) -> int:
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + (c % self.p)
        return val

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return int(self._add_table[a, b])
        return self.encode((x + y) % self.p for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        return self.encode((-x) % self.p for x in self.coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return int(self._mul_table[a, b])
        return self.encode(_poly_mulmod(self.coeffs(a), self.coeffs(b),
                                        self.modulus + (1,), self.p))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        e %= self.q - 1
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of 0")
        return self.pow(a, self.q - 2)

    def frobenius(self, a: int) -> int:
        """a -> a^p."""
        return self.pow(a, self.p)

    def conj(self, a: int) -> int:
        """For a field of square order p^(2m): a -> a^(p^m), the involution
        used for Hermitian forms."""
        if self.f % 2 != 0:
            raise FieldError("conjugation needs a field of square order")
        return self.pow(a, self.p ** (self.f // 2))

    def elements(self) -> range:
        return range(self.q)

    def primitive_element(self) -> int:
        n = self.q - 1
        divs = _prime_divisors(n)
        for g in range(1, self.q):
            if all(self.pow(g, n // r) != 1 for r in divs):
                return g
        raise FieldError("no primitive element found")

    def __repr__(self) -> str:
        return f"Field(GF({self.p}^{self.f}))"


@lru_cache(maxsize=None)
def make_field(p: int, f: int) -> Field:
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if f < 1:
        raise FieldError("extension degree must be positive")
    if p ** f > MAX_FIELD_SIZE:
        raise TooLarge(f"field size {p}^{f} exceeds {MAX_FIELD_SIZE}")
    return Field(p, f)
