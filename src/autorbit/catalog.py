"""Constructors for the named groups used throughout: symmetric, alternating,
cyclic and extraspecial groups, classical matrix groups in their projective
permutation actions, and Aut(S) by construction for S = Alt(n), PSL_2(q) and
PSL_3(q): Sym(n), PGammaL_2(q) on PG(1,q), and PGammaL_3(q) with the duality
on the points + lines of PG(2,q) (Aut(PSL_3(4)) of degree 42 among them).
A point row of PG(2,q) lifts to its lines column by column (`_line_lift`),
so a few columns of a large group's rows cost what those columns cost.

Projective points are normalized so the last nonzero coordinate is 1 and are
sorted lexicographically on their integer-encoded coordinate tuples; every
constructor therefore yields one canonical permutation representation.
"""

from __future__ import annotations

import re
from math import factorial, gcd
from typing import Callable, NamedTuple

import numpy as np

from .fields import MAX_FIELD_SIZE, Field, make_field
from .permcore import (DEFAULT_CLOSURE_LIMIT, BadParameter, FiniteGroup, GeneratorDeficiency,
                       TooLarge, close_group, point_dtype, _check_degree, size_text)


# -- permutation group families -------------------------------------------

def sym(n: int, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    if n < 1:
        raise BadParameter("sym(n) needs n >= 1")
    _check_degree(n)  # before a list of n points is built
    if n == 1:
        return close_group(np.empty((0, 1)), name="sym1")
    return close_group(_sym_rows(n), limit=limit, name=f"sym{n}", order=factorial(n))


def _sym_rows(n: int) -> np.ndarray:
    """Sym(n)'s generators for n >= 2: a transposition and, past n = 2, an n-cycle."""
    return np.array([[1, 0] + list(range(2, n))] + [list(range(1, n)) + [0]] * (n > 2))


def alt(n: int, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    if n < 1:
        raise BadParameter("alt(n) needs n >= 1")
    _check_degree(n)
    if n <= 2:
        return close_group(np.empty((0, n)), name=f"alt{n}")
    three = [1, 2, 0] + list(range(3, n))
    if n == 3:
        gens = [three]
    elif n % 2 == 1:
        gens = [three, list(range(1, n)) + [0]]
    else:
        gens = [three, [0] + list(range(2, n)) + [1]]
    return close_group(gens, limit=limit, name=f"alt{n}", order=factorial(n) // 2)


def cyclic(n: int, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    if n < 1:
        raise BadParameter("cyclic(n) needs n >= 1")
    _check_degree(n)
    return close_group([list(range(1, n)) + [0]], limit=limit, name=f"cyclic{n}", order=n)


def extraspecial_p3_exponent_p(p: int, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    """Nonabelian group of order p^3 and exponent p (p odd), realized as the
    upper-unitriangular 3x3 group over F_p acting affinely on F_p^2:
    (a,b,c): (x,y) -> (x + a*y + c, y + b).  Faithful of degree p^2."""
    if p not in (3, 5, 7):
        raise BadParameter("extraspecial_p3_exponent_p needs an odd prime p <= 7")
    pts = [(x, y) for x in range(p) for y in range(p)]
    idx = {pt: i for i, pt in enumerate(pts)}

    def aff(a, b, c):
        return [idx[((x + a * y + c) % p, (y + b) % p)] for x, y in pts]

    G = close_group([aff(1, 0, 0), aff(0, 1, 0)], limit, name=f"extraspecial{p**3}", order=p**3)
    orders = set(int(o) for o in G.element_orders())
    if orders != {1, p} or G.center_ids().size != p:
        raise GeneratorDeficiency("extraspecial construction failed validation")
    return G


# -- matrices over a finite field ------------------------------------------
# A matrix is a (d, d) int array of field elements; a batch is (K, d, d).

def mat_mul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched product over F of (..., m, n) and (..., n, l) arrays."""
    return F.sum(F.mul(A[..., :, :, None], B[..., None, :, :]), axis=-2)


def hermitian_inner(F: Field, u, v):
    """<u, v> = sum u_i * conj(v_i) over the last axis (identity Gram matrix)."""
    return F.sum(F.mul(np.asarray(u), F.conj(np.asarray(v))))


def is_unitary(F: Field, A) -> bool:
    """Whether every matrix of A preserves the form: A A^* = 1."""
    A = np.asarray(A)
    return bool(np.all(mat_mul(F, A, F.conj(np.swapaxes(A, -1, -2)))
                       == np.eye(A.shape[-1], dtype=np.int64)))


def _det(F: Field, A: np.ndarray):
    """Determinants of a batch (..., d, d), by expansion along the first row."""
    d = A.shape[-1]
    if d == 1:
        return A[..., 0, 0]
    det = 0
    for j in range(d):
        term = F.mul(A[..., 0, j], _det(F, np.delete(A[..., 1:, :], j, axis=-1)))
        det = F.sub(det, term) if j % 2 else F.add(det, term)
    return det


def _diag(d: int, lam: int) -> np.ndarray:
    """The batch of one matrix diag(lam, 1, ..., 1)."""
    M = np.eye(d, dtype=np.int64)[None]
    M[0, 0, 0] = lam
    return M


# -- projective actions -----------------------------------------------------

def _digit_rows(n: int, q: int, d: int) -> np.ndarray:
    """(n, d) base-q digits of 0..n-1, most significant first."""
    return np.arange(n)[:, None] // q ** np.arange(d - 1, -1, -1) % q


def _point_codes(F: Field, vecs: np.ndarray) -> np.ndarray:
    """Integer codes whose order is the lexicographic order of the vectors."""
    return vecs @ F.q ** np.arange(vecs.shape[-1] - 1, -1, -1)


def projective_points(F: Field, d: int) -> np.ndarray:
    """Canonical (N, d) array of projective points: last nonzero coordinate
    1, rows sorted lexicographically."""
    blocks = []
    for t in range(d):  # the points whose last nonzero coordinate is t
        n = F.q ** t
        blocks.append(np.hstack([_digit_rows(n, F.q, t), np.ones((n, 1), np.int64),
                                 np.zeros((n, d - 1 - t), np.int64)]))
    pts = np.concatenate(blocks)
    return pts[np.argsort(_point_codes(F, pts))]


def projective_perms(F: Field, pts: np.ndarray, mats, twist=None) -> np.ndarray:
    """(K, N) point images under each of K matrices, v -> M twist(v) scaled
    back to last nonzero coordinate 1; `twist` is an optional field map
    applied to the coordinates first (the Frobenius map)."""
    src = pts if twist is None else twist(pts)
    img = np.swapaxes(mat_mul(F, np.asarray(mats), src.T), -1, -2)
    last = img.shape[-1] - 1 - np.argmax(img[..., ::-1] != 0, axis=-1)
    scale = F.inv(np.take_along_axis(img, last[..., None], axis=-1))
    return np.searchsorted(_point_codes(F, pts), _point_codes(F, F.mul(img, scale)))


def isotropic_points(F: Field, d: int) -> np.ndarray:
    """The projective points v with <v, v> = 0, in canonical order."""
    pts = projective_points(F, d)
    return pts[hermitian_inner(F, pts, pts) == 0]


def sl_generators(F: Field, d: int) -> np.ndarray:
    """Elementary transvections along the superdiagonal chain, one for each
    element p^k of the polynomial basis; these generate SL_d(q) for every
    d >= 2."""
    gens = []
    for i in range(d - 1):
        for lam in (F.p ** k for k in range(F.f)):
            for (r, c) in ((i, i + 1), (i + 1, i)):
                M = np.eye(d, dtype=np.int64)
                M[r, c] = lam
                gens.append(M)
    return np.array(gens)


def su_generators(F: Field, d: int) -> np.ndarray:
    """Unitary transvections x -> x + lam*<x,v>*v for every isotropic point v
    (identity Gram matrix, conjugation x -> x^q).  The trace-zero lam form
    the line lam0*F_q, and lam -> transvection is additive, so lam runs over
    the F_p-basis lam0 * omega^k of that line.  These generate SU_d(q) except
    for SU_3(2) (Taylor, The Geometry of the Classical Groups, 1992), where
    every unitary matrix of determinant 1 is taken instead."""
    q = F.p ** (F.f // 2)
    if (d, q) == (3, 2):
        return _unitary_matrices(F, d)
    iso = isotropic_points(F, d)
    if not iso.size:
        raise BadParameter("no isotropic vectors; SU needs d >= 2")
    lam0 = next(x for x in range(1, F.q) if F.add(x, F.pow(x, q)) == 0)
    omega = F.pow(F.primitive_element(), q + 1)  # primitive in the subfield F_q
    lams = np.array([F.mul(lam0, F.pow(omega, k)) for k in range(F.f // 2)])
    outer = F.mul(iso[:, None, :, None], F.conj(iso)[:, None, None, :])
    mats = F.add(np.eye(d, dtype=np.int64), F.mul(lams[:, None, None], outer))
    if not is_unitary(F, mats) or np.any(_det(F, mats) != 1):
        raise GeneratorDeficiency("bad unitary transvection; construction bug")
    return mats.reshape(-1, d, d)


def _unitary_matrices(F: Field, d: int) -> np.ndarray:
    """All unitary matrices of determinant 1, i.e. those whose rows are
    orthonormal for the identity Gram matrix, built row by row from the
    norm-1 vectors: each tuple of orthonormal rows, in order, is extended by
    every vector orthogonal to all of them, in order."""
    vecs = _digit_rows(F.q ** d, F.q, d)
    unit = vecs[hermitian_inner(F, vecs, vecs) == 1]
    orth = hermitian_inner(F, unit[:, None], unit[None, :]) == 0
    found = np.empty((1, 0), dtype=np.intp)
    for _ in range(d):
        at, j = np.nonzero(np.all(orth[found], axis=1))  # row-major: tuple, then vector
        found = np.column_stack([found[at], j])
    mats = unit[found]
    return mats[_det(F, mats) == 1]


def _order_gl(d: int, q: int) -> int:
    n = 1
    for i in range(1, d + 1):
        n *= q ** i - 1
    return n * q ** (d * (d - 1) // 2)  # the power last: small factors multiply first


def projective_order(kind: str, d: int, q: int) -> int:
    """|PGL|, |PSL|, |PGU| or |PSU| of dimension d over F_q.  |GU_d(q)| is
    |GL_d(-q)| up to sign (Ennola duality), so one product serves both."""
    if kind not in ("GL", "SL", "GU", "SU"):
        raise BadParameter(f"kind must be GL, SL, GU or SU, not {kind!r}")
    field = q * q if kind in ("GU", "SU") else q  # the unitary groups live over F_{q^2}
    if field > MAX_FIELD_SIZE:  # the field-size guard, before the loop over q
        raise TooLarge(f"field size {field} exceeds {MAX_FIELD_SIZE}")
    _prime_power(q)  # raises BadParameter unless q is a prime power
    s = q if kind in ("GL", "SL") else -q
    n = abs(_order_gl(d, s) // (s - 1))
    return n // gcd(d, s - 1) if kind in ("SL", "SU") else n


def projective_group(kind: str, d: int, q: int,
                     limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    """PGL/PSL_d(q) on the projective points of the natural module, PGU/PSU_d(q)
    on its isotropic points only (over F_{q^2}), which they permute faithfully."""
    kind = kind.upper()
    if d < 2:
        raise BadParameter("need dimension >= 2")
    expected = projective_order(kind, d, q)
    if expected > limit:
        raise TooLarge(f"P{kind}_{d}({q}) has order {size_text(expected)} > limit {limit}")

    p, f = _prime_power(q)
    if kind in ("GL", "SL"):
        F = make_field(p, f)
        mats, pts = sl_generators(F, d), projective_points(F, d)
        extra = F.primitive_element()  # determinant of order q-1
    else:
        F = make_field(p, 2 * f)
        mats, pts = su_generators(F, d), isotropic_points(F, d)
        extra = F.pow(F.primitive_element(), q - 1)  # norm-1 element of order q+1
    if kind in ("GL", "GU"):
        mats = np.concatenate([mats, _diag(d, extra)])

    name = f"p{kind.lower()}({d},{q})"
    return close_group(projective_perms(F, pts, mats), limit=limit, name=name, order=expected)


def _prime_power(q: int) -> tuple[int, int]:
    p = next((p for p in range(2, q + 1) if q % p == 0), None)  # q's least prime factor
    f = 1
    while p is not None and p ** f < q:
        f += 1
    if p is None or p ** f != q:
        raise BadParameter(f"{q} is not a prime power")
    return p, f


# -- Aut(S) by construction ------------------------------------------------

def _points(rows: np.ndarray, cols=slice(None)) -> np.ndarray:
    """The lift of a group that acts on the rows' own points: their columns `cols`."""
    return np.asarray(rows)[:, cols]


def _line_lift(F: Field, pts: np.ndarray) -> Callable[..., np.ndarray]:
    """The lift of point permutations (K, N) of PG(2,q) to its points and lines,
    numbered after the points: line j = {v : pts[j].v = 0} goes to the line
    through the images of two of its points.  `lift(img, cols)` builds only the
    lifted columns `cols` (all by default), a line column from two point columns."""
    n, on = len(pts), mat_mul(F, pts, pts.T) == 0  # on[j, i]: point i lies on line j
    a, b = np.argsort(~on, axis=1, kind="stable")[:, :2].T  # two points of each line
    through = np.argmax(on[:, :, None] & on[:, None, :], axis=0)  # the line through 2 points
    through = (n + through).astype(point_dtype(2 * n))  # line images in the lifted rows' type

    def lift(img: np.ndarray, cols=slice(None)) -> np.ndarray:
        img, cols = np.asarray(img), np.arange(2 * n)[cols]
        out, point = np.empty((len(img), cols.size), through.dtype), cols < n
        out[:, point] = img[:, cols[point]]
        line = cols[~point] - n
        out[:, ~point] = through[img[:, a[line]], img[:, b[line]]]
        return out
    return lift


def _pgammal(d: int, q: int) -> tuple[Callable[..., np.ndarray], np.ndarray, int]:
    """Aut(PSL_d(q)) for d = 2 (q >= 4) or d = 3 (Steinberg 1960): PGL_d(q) and
    the Frobenius map, PGammaL_d(q), on PG(d-1,q), for d = 3 on its points and
    lines with the inverse-transpose duality.  The lift of point rows to the
    rows' points (`_points`, or for d = 3 `_line_lift`), the rows (SL_d(q)'s,
    the diagonal, the Frobenius map, the duality) and the order."""
    p, f = _prime_power(q)
    F = make_field(p, f)
    pts = projective_points(F, d)
    mats = np.concatenate([sl_generators(F, d), _diag(d, F.primitive_element())])
    lift = _points if d == 2 else _line_lift(F, pts)
    rows = [lift(projective_perms(F, pts, mats)),
            lift(projective_perms(F, pts, np.eye(d, dtype=np.int64)[None], F.frobenius))]
    if d == 3:
        rows.append(np.roll(np.arange(2 * len(pts)), len(pts))[None])  # the duality
    return lift, np.vstack(rows), projective_order("GL", d, q) * f * (2 if d == 3 else 1)


def extended_aut_psl34(limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    """Aut(PSL_3(4)) of order 241920 as a permutation group of degree 42:
    points 0..20 and lines 21..41 of PG(2,4), generated by the PGL_3(4)
    point-line action, the Frobenius field automorphism, and the
    inverse-transpose duality swapping points with lines."""
    *_, rows, order = _pgammal(3, 4)
    return close_group(rows, limit=limit, name="autpsl34", order=order)


def psl34_socle_ids(autgroup: FiniteGroup) -> np.ndarray:
    """Ids of the PSL_3(4) socle inside extended_aut_psl34()."""
    F = make_field(2, 2)
    pts = projective_points(F, 3)
    rows = _line_lift(F, pts)(projective_perms(F, pts, sl_generators(F, 3)))
    ids = autgroup.subgroup_closure(autgroup.ids_of(rows))
    if ids.size != 20160:
        raise GeneratorDeficiency(f"socle closed to {ids.size}, expected 20160")
    return ids


class AlmostSimple(NamedTuple):
    """S <= G <= Aut(S), S simple, and Aut(S)'s rows and order, not closed.  G
    acts on the rows' first points: all but the lines of PG(2,q), which `lift`
    adds.  `lift(rows, cols)` gives only the lifted columns `cols` (all by default)."""
    group: FiniteGroup
    aut_rows: np.ndarray
    aut_order: int
    socle_order: int
    lift: Callable[..., np.ndarray] = _points

    def closed(self) -> FiniteGroup:
        """Aut(S) closed under the default limit, for `construct hp`, the one
        command that sweeps Aut(S)'s elements."""
        return close_group(self.aut_rows, order=self.aut_order)


def almost_simple(name: str, limit: int = DEFAULT_CLOSURE_LIMIT) -> AlmostSimple | None:
    """The catalog group G named `name`, S <= G <= Aut(S), S simple, with
    Aut(S)'s rows and order, for the families built here; None otherwise.
    Aut(S) is Sym(n) for alt/sym(n), n >= 5, n != 6; PGammaL_2(q) for
    psl/pgl(2,q), q >= 4, and for alt6 = PSL_2(9) and sym6 = PSigmaL_2(9),
    which close on PG(1,9); PGammaL_3(q) with the duality for psl/pgl(3,q).
    `limit` bounds G, the one group closed here."""
    base, a, b = _parse_name(name)
    socle = {"sym": "alt", "pgl": "psl"}.get(base, base)  # S's family: alt in sym, psl in pgl
    if not (socle == "alt" and b is None and a >= 5
            or socle == "psl" and b is not None and (a == 3 or a == 2 and b >= 4)):
        return None
    if b is None and a != 6:
        G, order = resolve(name, limit), factorial(a)
        return AlmostSimple(G, _sym_rows(a), order, order // 2)
    d, q = (2, 9) if b is None else (a, b)
    G = None if b is None else resolve(name, limit)  # before Aut(S)'s rows are built
    lift, rows, order = _pgammal(d, q)
    if G is None:  # PSL_2(9) from SL's rows, PSigmaL_2(9) from all but the diagonal, rows[-2]
        G = close_group(rows[:-2] if base == "alt" else np.delete(rows, -2, axis=0), limit,
                        name=f"{base}6", order=360 if base == "alt" else 720)
    return AlmostSimple(G, rows, order, projective_order("SL", d, q), lift)


# -- name registry ----------------------------------------------------------

_NAME_RE = re.compile(r"^([a-z]+)\s*(?:\(?\s*([0-9]+)\s*(?:,\s*([0-9]+))?\s*\)?)?$")

CATALOG_ENTRIES = [
    ("sym(n)", "symmetric group, natural action", "sym5"),
    ("alt(n)", "alternating group, natural action", "alt5"),
    ("cyclic(n)", "cyclic group as an n-cycle", "cyclic5"),
    ("extraspecial(p)", "order p^3, exponent p (odd p <= 7)", "extraspecial(3)"),
    ("psl(d,q)", "projective special linear group", "psl(3,4)"),
    ("pgl(d,q)", "projective general linear group", "pgl(3,4)"),
    ("psu(d,q)", "projective special unitary group", "psu(3,3)"),
    ("pgu(d,q)", "projective general unitary group", "pgu(3,4)"),
    ("autpsl34", "Aut(PSL_3(4)) on the 21+21 points/lines of PG(2,4)", "autpsl34"),
]


_ALIASES = {"psl34": "psl(3,4)", "extraspecial27": "extraspecial(3)"}


def _parse_name(name: str) -> tuple[str, int, int | None]:
    """(family, first parameter, second parameter or None) of a catalog name;
    the whole-name aliases map to their parenthesized form first."""
    key = name.strip().lower()
    m = _NAME_RE.match(_ALIASES.get(key, key))
    if not m:
        raise BadParameter(f"cannot parse group name {name!r}")
    base, a, b = m.groups()
    if a is None:
        raise BadParameter(f"group name {name!r} needs a parameter")
    return base, int(a), (None if b is None else int(b))


def resolve(name: str, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    """Build a catalog group from a name like 'alt5', 'sym(6)', 'psl(3,4)'."""
    if name.strip().lower() == "autpsl34":  # before the digits split off
        return extended_aut_psl34(limit)
    base, a, b = _parse_name(name)
    if base == "sym" and b is None:
        return sym(a, limit)
    if base == "alt" and b is None:
        return alt(a, limit)
    if base == "cyclic" and b is None:
        return cyclic(a, limit)
    if base in ("extraspecial", "es") and b is None:
        return extraspecial_p3_exponent_p(a, limit)
    if base in ("psl", "pgl", "psu", "pgu") and b is not None:
        kind = {"psl": "SL", "pgl": "GL", "psu": "SU", "pgu": "GU"}[base]
        return projective_group(kind, a, b, limit=limit)
    raise BadParameter(f"unknown catalog group {name!r}")
