"""Constructors for the named groups used throughout: symmetric, alternating,
cyclic and extraspecial groups, classical matrix groups in their projective
permutation actions, and the extended automorphism group of PSL_3(4) built
geometrically on the 21 points + 21 lines of PG(2,4).

Projective points are normalized so the last nonzero coordinate is 1 and are
sorted lexicographically on their integer-encoded coordinate tuples; every
constructor therefore yields one canonical permutation representation.
"""

from __future__ import annotations

import re
from math import gcd
from typing import Callable

import numpy as np

from .fields import Field, make_field
from .permcore import (DEFAULT_CLOSURE_LIMIT, FiniteGroup, Permutation,
                       TooLarge, close_group, GroupError)


class BadParameter(GroupError):
    pass


class GeneratorDeficiency(GroupError):
    """A chosen generating set closed to the wrong order; construction bug."""


# -- permutation group families -------------------------------------------

def sym(n: int, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    if n < 1:
        raise BadParameter("sym(n) needs n >= 1")
    if n == 1:
        return close_group([], degree=1, name="sym1")
    gens = [Permutation([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(Permutation(list(range(1, n)) + [0]))
    return close_group(gens, limit=limit, name=f"sym{n}")


def alt(n: int, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    if n < 1:
        raise BadParameter("alt(n) needs n >= 1")
    if n <= 2:
        return close_group([], degree=n, name=f"alt{n}")
    three = Permutation([1, 2, 0] + list(range(3, n)))
    if n == 3:
        gens = [three]
    elif n % 2 == 1:
        gens = [three, Permutation(list(range(1, n)) + [0])]
    else:
        gens = [three, Permutation([0] + list(range(2, n)) + [1])]
    return close_group(gens, limit=limit, name=f"alt{n}")


def cyclic(n: int, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    if n < 1:
        raise BadParameter("cyclic(n) needs n >= 1")
    if n == 1:
        return close_group([], degree=1, name="cyclic1")
    return close_group([Permutation(list(range(1, n)) + [0])], limit=limit,
                       name=f"cyclic{n}")


def extraspecial_p3_exponent_p(p: int, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    """Nonabelian group of order p^3 and exponent p (p odd), realized as the
    upper-unitriangular 3x3 group over F_p acting affinely on F_p^2:
    (a,b,c): (x,y) -> (x + a*y + c, y + b).  Faithful of degree p^2."""
    if p not in (3, 5, 7):
        raise BadParameter("extraspecial_p3_exponent_p needs an odd prime p <= 7")
    pts = [(x, y) for x in range(p) for y in range(p)]
    idx = {pt: i for i, pt in enumerate(pts)}

    def aff(a, b, c):
        return Permutation([idx[((x + a * y + c) % p, (y + b) % p)] for x, y in pts])

    G = close_group([aff(1, 0, 0), aff(0, 1, 0)], limit=limit, name=f"extraspecial{p**3}")
    orders = set(int(o) for o in G.element_orders())
    if G.order != p ** 3 or orders != {1, p} or G.center_ids().size != p:
        raise GeneratorDeficiency("extraspecial construction failed validation")
    return G


# -- matrices over a finite field ------------------------------------------

Matrix = tuple  # tuple of row tuples of field-element ints


def mat_identity(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(F: Field, A: Matrix, B: Matrix) -> Matrix:
    d = len(A)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = 0
            for k in range(d):
                acc = F.add(acc, F.mul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(F: Field, A: Matrix, v: tuple) -> tuple:
    d = len(A)
    out = []
    for i in range(d):
        acc = 0
        for j in range(d):
            acc = F.add(acc, F.mul(A[i][j], v[j]))
        out.append(acc)
    return tuple(out)


def mat_transpose(A: Matrix) -> Matrix:
    d = len(A)
    return tuple(tuple(A[j][i] for j in range(d)) for i in range(d))


def mat_inv(F: Field, A: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises on singular input."""
    d = len(A)
    aug = [list(A[i]) + [1 if i == j else 0 for j in range(d)] for i in range(d)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            raise BadParameter("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = F.inv(aug[col][col])
        aug[col] = [F.mul(scale, x) for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [F.sub(x, F.mul(factor, y)) for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def mat_conj_transpose(F: Field, A: Matrix) -> Matrix:
    d = len(A)
    return tuple(tuple(F.conj(A[j][i]) for j in range(d)) for i in range(d))


def hermitian_inner(F: Field, u: tuple, v: tuple) -> int:
    """<u, v> = sum u_i * conj(v_i) with the identity Gram matrix."""
    acc = 0
    for a, b in zip(u, v):
        acc = F.add(acc, F.mul(a, F.conj(b)))
    return acc


def is_unitary(F: Field, A: Matrix) -> bool:
    return mat_mul(F, A, mat_conj_transpose(F, A)) == mat_identity(len(A))


# -- projective actions -----------------------------------------------------

def projective_points(F: Field, d: int) -> tuple[list[tuple], dict]:
    """Canonical list of projective points: last nonzero coordinate scaled
    to 1, sorted lexicographically on the coordinate encodings."""
    pts = sorted({normalize_point(F, v) for v in _vectors(F, d)[1:]})
    return pts, {pt: i for i, pt in enumerate(pts)}


def _vectors(F: Field, d: int) -> list[tuple]:
    """F^d in the order of the code sum(v[j] * q^j)."""
    return [tuple((code // F.q ** j) % F.q for j in range(d)) for code in range(F.q ** d)]


def normalize_point(F: Field, v: tuple) -> tuple:
    last = max(i for i, x in enumerate(v) if x != 0)
    s = F.inv(v[last])
    return tuple(F.mul(s, x) for x in v)


def projective_perm(F: Field, pts: list, pidx: dict, M: Matrix) -> Permutation:
    return Permutation([pidx[normalize_point(F, mat_vec(F, M, v))] for v in pts])


def _field_basis(F: Field) -> list[int]:
    return [F.p ** 0] if F.f == 1 else [F.encode([0] * k + [1] + [0] * (F.f - 1 - k))
                                        for k in range(F.f)]


def sl_generators(F: Field, d: int) -> list[Matrix]:
    """Elementary transvections along the superdiagonal chain; these generate
    SL_d(q) for every d >= 2."""
    gens = []
    for i in range(d - 1):
        for lam in _field_basis(F):
            for (r, c) in ((i, i + 1), (i + 1, i)):
                M = [list(row) for row in mat_identity(d)]
                M[r][c] = lam
                gens.append(tuple(tuple(row) for row in M))
    return gens


def su_generators(F: Field, d: int) -> list[Matrix]:
    """Unitary transvections x -> x + lam*<x,v>*v for isotropic v and
    trace-zero lam (identity Gram matrix, conjugation x -> x^q).  These
    generate SU_d(q) except for the classical exception SU_3(2)."""
    q = F.p ** (F.f // 2)
    pts, _ = projective_points(F, d)
    isotropic = [v for v in pts if hermitian_inner(F, v, v) == 0]
    if not isotropic:
        raise BadParameter("no isotropic vectors; SU needs d >= 2")
    trace_zero = [lam for lam in range(1, F.q) if F.add(lam, F.pow(lam, q)) == 0]
    gens = []
    for v in isotropic[: max(6, d)]:
        for lam in trace_zero:
            M = tuple(
                tuple(F.add(1 if i == j else 0, F.mul(lam, F.mul(v[i], F.conj(v[j]))))
                      for j in range(d))
                for i in range(d)
            )
            if not is_unitary(F, M) or _det(F, M) != 1:
                raise GeneratorDeficiency("bad unitary transvection; construction bug")
            gens.append(M)
    return gens


def _perm_matrices(d: int) -> list[Matrix]:
    """Permutation matrices for a transposition and a d-cycle (unitary for
    the identity Gram matrix in any characteristic)."""
    swap = [[1 if (j == (1 - i if i < 2 else i)) else 0 for j in range(d)] for i in range(d)]
    cyc = [[1 if j == (i + 1) % d else 0 for j in range(d)] for i in range(d)]
    return [tuple(tuple(r) for r in swap), tuple(tuple(r) for r in cyc)]


def _unitary_reflection(F: Field, v: tuple, zeta: int) -> Matrix:
    """x -> x - (1 - zeta) * <x,v>/<v,v> * v, for non-isotropic v and zeta of
    norm 1; unitary with determinant zeta."""
    d = len(v)
    scale = F.mul(F.sub(1, zeta), F.inv(hermitian_inner(F, v, v)))
    M = tuple(
        tuple(F.sub(1 if i == j else 0, F.mul(scale, F.mul(v[i], F.conj(v[j]))))
              for j in range(d))
        for i in range(d)
    )
    if not is_unitary(F, M):
        raise GeneratorDeficiency("bad unitary reflection; construction bug")
    return M


def gu_reflections(F: Field, d: int, q: int) -> list[Matrix]:
    zeta = F.pow(F.primitive_element(), q - 1)  # norm-1, order q+1
    pts, _ = projective_points(F, d)
    aniso = [v for v in pts if hermitian_inner(F, v, v) != 0]
    return [_unitary_reflection(F, v, zeta) for v in aniso[: 2 * d]]


def _unitary_matrices(F: Field, d: int, det_one: bool) -> list[Matrix]:
    """All unitary matrices, i.e. those whose rows are orthonormal for the
    identity Gram matrix, built row by row from the norm-1 vectors, in
    ascending order of sum(M[i][j] * q^(d*i + j)); only needed for SU/GU_3(2)."""
    if F.q ** (d * d) > 2 ** 20:
        raise TooLarge("unitary matrix enumeration infeasible")
    unit = [v for v in _vectors(F, d) if hermitian_inner(F, v, v) == 1]
    found = [()]
    for _ in range(d):
        found = [rows + (v,) for rows in found for v in unit
                 if all(hermitian_inner(F, u, v) == 0 for u in rows)]
    found.sort(key=lambda M: [x for row in reversed(M) for x in reversed(row)])
    return [M for M in found if not det_one or _det(F, M) == 1]


def _det(F: Field, A: Matrix) -> int:
    d = len(A)
    rows = [list(r) for r in A]
    det = 1
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = F.neg(det)
        det = F.mul(det, rows[col][col])
        inv = F.inv(rows[col][col])
        for r in range(col + 1, d):
            if rows[r][col] != 0:
                factor = F.mul(rows[r][col], inv)
                rows[r] = [F.sub(x, F.mul(factor, y)) for x, y in zip(rows[r], rows[col])]
    return det


def _order_gl(d: int, q: int) -> int:
    n = 1
    for i in range(d):
        n *= q ** d - q ** i
    return n


def _order_gu(d: int, q: int) -> int:
    n = q ** (d * (d - 1) // 2)
    for i in range(1, d + 1):
        n *= q ** i - (-1) ** i
    return n


def projective_order(kind: str, d: int, q: int) -> int:
    if kind == "GL":
        return _order_gl(d, q) // (q - 1)
    if kind == "SL":
        return _order_gl(d, q) // (q - 1) // gcd(d, q - 1)
    if kind == "GU":
        return _order_gu(d, q) // (q + 1)
    if kind == "SU":
        return _order_gu(d, q) // (q + 1) // gcd(d, q + 1)
    raise BadParameter(f"unknown kind {kind!r}")


def projective_group(kind: str, d: int, q: int,
                     limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    """PGL/PSL/PGU/PSU_d(q) acting on the projective points of the natural
    module (over F_{q^2} for the unitary kinds)."""
    kind = kind.upper()
    if kind not in ("GL", "SL", "GU", "SU"):
        raise BadParameter(f"kind must be GL, SL, GU or SU, not {kind!r}")
    if d < 2:
        raise BadParameter("need dimension >= 2")
    expected = projective_order(kind, d, q)
    if expected > limit:
        raise TooLarge(f"P{kind}_{d}({q}) has order {expected} > limit {limit}")

    if kind in ("GL", "SL"):
        F = make_field(*_prime_power(q))
        mats = sl_generators(F, d)
        if kind == "GL":
            mats = mats + [_diag(F, d, F.primitive_element())]
    else:
        p0, f0 = _prime_power(q)
        F = make_field(p0, 2 * f0)
        mats = su_generators(F, d)
        if kind == "GU":
            mu = F.pow(F.primitive_element(), q - 1)  # norm-1 element of order q+1
            mats = mats + [_diag(F, d, mu)] + _perm_matrices(d) + gu_reflections(F, d, q)
        else:
            # det-1 products of reflections rescue SU_3(2), where transvections
            # generate a proper subgroup
            refl = gu_reflections(F, d, q)
            zinv_pairs = []
            for i in range(0, len(refl) - 1, 2):
                zinv_pairs.append(mat_mul(F, refl[i], mat_inv(F, refl[i + 1])))
            mats = mats + zinv_pairs[:d]

    pts, pidx = projective_points(F, d)
    name = f"p{kind.lower()}({d},{q})"
    gens = [projective_perm(F, pts, pidx, M) for M in mats]
    G = close_group(gens, limit=limit, name=name)
    if G.order != expected and kind in ("SU", "GU"):
        # SU_3(2) is not generated by its transvections; use every unitary matrix
        mats = _unitary_matrices(F, d, det_one=(kind == "SU"))
        gens = [projective_perm(F, pts, pidx, M) for M in mats]
        G = close_group(gens, limit=limit, name=name)
    if G.order != expected:
        raise GeneratorDeficiency(
            f"{name}: closed to order {G.order}, expected {expected}")
    return G


def _diag(F: Field, d: int, lam: int) -> Matrix:
    M = [list(row) for row in mat_identity(d)]
    M[0][0] = lam
    return tuple(tuple(row) for row in M)


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            f = 0
            m = q
            while m % p == 0:
                m //= p
                f += 1
            if m != 1:
                raise BadParameter(f"{q} is not a prime power")
            return p, f
    raise BadParameter(f"{q} is not a prime power")


# -- Aut(PSL_3(4)) on points + lines of PG(2,4) -----------------------------

def _point_line_perm(F: Field, pts: list, pidx: dict, M: Matrix) -> Permutation:
    """M on the points and, by its inverse transpose, on the lines of PG(2,q)."""
    Minvt = mat_transpose(mat_inv(F, M))
    return Permutation([pidx[normalize_point(F, mat_vec(F, M, v))] for v in pts]
                       + [len(pts) + pidx[normalize_point(F, mat_vec(F, Minvt, u))] for u in pts])


def extended_aut_psl34(limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    """Aut(PSL_3(4)) of order 241920 as a permutation group of degree 42:
    points 0..20 and lines 21..41 of PG(2,4), generated by the PGL_3(4)
    point-line action, the Frobenius field automorphism, and the
    inverse-transpose duality swapping points with lines."""
    F = make_field(2, 2)
    pts, pidx = projective_points(F, 3)
    n_pts = len(pts)

    def combined(point_map: Callable, line_map: Callable) -> Permutation:
        images = [point_map(v) for v in pts] + [n_pts + line_map(u) for u in pts]
        return Permutation(images)

    mats = sl_generators(F, 3) + [_diag(F, 3, F.primitive_element())]
    gens = [_point_line_perm(F, pts, pidx, M) for M in mats]
    frob = combined(
        lambda v: pidx[normalize_point(F, tuple(F.frobenius(x) for x in v))],
        lambda u: pidx[normalize_point(F, tuple(F.frobenius(x) for x in u))],
    )
    duality = Permutation([n_pts + i for i in range(n_pts)] + list(range(n_pts)))
    G = close_group(gens + [frob, duality], limit=limit, name="autpsl34")
    if G.order != 241920:
        raise GeneratorDeficiency(f"Aut(PSL_3(4)) closed to {G.order}, expected 241920")
    return G


def psl34_socle_ids(autgroup: FiniteGroup) -> np.ndarray:
    """Ids of the PSL_3(4) socle inside extended_aut_psl34()."""
    F = make_field(2, 2)
    pts, pidx = projective_points(F, 3)
    S = close_group([_point_line_perm(F, pts, pidx, M) for M in sl_generators(F, 3)],
                    name="psl(3,4)@42")
    if S.order != 20160:
        raise GeneratorDeficiency(f"socle closed to {S.order}, expected 20160")
    return autgroup.ids_of(S.elements)


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


def resolve(name: str, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    """Build a catalog group from a name like 'alt5', 'sym(6)', 'psl(3,4)'."""
    key = name.strip().lower()
    if key == "autpsl34":  # whole-name aliases, before the digits split off
        return extended_aut_psl34(limit)
    if key == "extraspecial27":
        return extraspecial_p3_exponent_p(3, limit)
    m = _NAME_RE.match(key)
    if not m:
        raise BadParameter(f"cannot parse group name {name!r}")
    base, a, b = m.group(1), m.group(2), m.group(3)
    a = int(a) if a is not None else None
    b = int(b) if b is not None else None
    if a is None:
        raise BadParameter(f"group name {name!r} needs a parameter")
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
