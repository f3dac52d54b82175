"""Wreath products G wr T for T <= Sym_n on packed codes: conjugation sweeps,
the classes, backward cycle product profiles, the combinatorial conjugacy
test with its brute-force oracle, and the large-orbit construction over
Aut(S) with a p-cycle top.

The classes are the orbits of one generating set's conjugation maps, built a
block of codes at a time; the profiles number each code's sorted row of
backward-cycle-product classes through one packed key per code.

Multiplication law, matching the composition convention of `permcore`:
(g, sigma)(h, upsilon) = ((g_i * h_{sigma^-1(i)})_i, sigma*upsilon); the
conjugate of `a` by `b` is b*a*b^-1.  Cycles of the top inherit their
orientation from it: within a listed cycle (i_1 ... i_l), sigma(i_j) =
i_{j+1}.  An element is n base-group ids and a top-group id, so a packed code
is arithmetic on them; a conjugator is a pair (base ids, top image row)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .catalog import sym
from .fields import make_field
from .permcore import (DEFAULT_CLOSURE_LIMIT, FiniteGroup, GroupError, TooLarge, _row_blocks,
                       close_group, conjugacy_classes, cycle_decompose, cycle_type, orbits,
                       size_text, sweep)
from .reports import encode_value

DEFAULT_ORBIT_SPACE = 64_000_000  # visited-array cells for orbit sweeps


def check_sweep_size(order: int):
    """Raise unless a wreath group of this order fits DEFAULT_ORBIT_SPACE visited cells."""
    if order > DEFAULT_ORBIT_SPACE:
        raise TooLarge(f"wreath group order {size_text(order)} too large to sweep")


class ShapeMismatch(GroupError):
    pass


class NotACycleOfTop(GroupError):
    pass


@dataclass(frozen=True)
class WreathElement:
    """(g_1,...,g_n)*sigma: base entries as base-group ids, sigma as a top-group id.
    Only `WreathGroup.element` checks an element given from outside."""

    base: tuple[int, ...]
    top: int


@dataclass(frozen=True)
class BcpcProfile:
    """Multisets of backward-cycle-product classes, keyed by cycle length l
    (and by (l, type) when a typing is supplied).  Multisets are encoded as
    sorted tuples of class ids, so equality is plain equality."""

    by_length: dict
    by_length_and_type: dict | None = None


class WreathGroup:
    """base wr top; `top`, given by its generator rows (k, n), defaults to the
    full symmetric group of degree n.  Products of base entries are lookups in
    the base Cayley table, built on first use."""

    def __init__(self, base: FiniteGroup, n: int, top: np.ndarray | None = None):
        self.base = base
        self.n = n
        self.top = sym(n) if top is None else close_group(top)
        if self.top.degree != n:
            raise ShapeMismatch("top group degree != n")
        self.base_inv = base.inverse_ids()
        self._enum_classes: np.ndarray | None = None

    # -- element helpers ------------------------------------------------

    @property
    def T(self) -> np.ndarray:
        return self.base.cayley()

    @property
    def order(self) -> int:
        return self.base.order ** self.n * self.top.order

    def element(self, base_ids: Sequence[int], top) -> WreathElement:
        """The element with these base ids and top, an image row of the top group."""
        if len(base_ids) != self.n:
            raise ShapeMismatch(f"expected {self.n} base entries")
        return WreathElement(tuple(int(b) for b in base_ids), self.top.id_of(top))

    # -- packed enumeration ----------------------------------------------

    def pack(self, w: WreathElement) -> int:
        return int(self._pack_arrays(np.reshape(w.base, (-1, 1)), np.reshape(w.top, 1))[0])

    def _pack_arrays(self, B: np.ndarray, t: np.ndarray) -> np.ndarray:
        code = np.zeros(t.size, dtype=np.int64)
        for row in B:
            code = code * self.base.order + row
        return code * self.top.order + t

    def _unpack_codes(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The base ids B, one row per coordinate, and the top ids t."""
        codes = np.asarray(codes, dtype=np.int64)
        rest = codes // self.top.order  # x - (x // d)*d: numpy's x % d is its slow path
        t = codes - rest * self.top.order
        B = np.empty((self.n, codes.size), dtype=np.int64)
        for i in range(self.n - 1, -1, -1):
            B[i], rest = rest, rest // self.base.order
            B[i] -= rest * self.base.order
        return B, t

    # -- vectorized conjugation sweeps ------------------------------------

    def _conjugation_maps(self, conjugators: Iterable[tuple[Sequence[int], np.ndarray]]):
        """Per conjugator (k, psi), psi an image row, the tables of
        conj(a) = (k,psi) a (k,psi)^-1 on packed codes: psi^-1, and for each
        coordinate j the table C_j[t*|G| + b] = T[T[k_j, b], k^-1[col2[t, j]]]
        times the weight of coordinate j in a code, with top_map[t], the top
        id of psi sigma_t psi^-1, folded into C_0.  The image of a code with
        top id t and base ids B is sum_j C_j[t*|G| + B[psi^-1(j)]].  psi must
        normalize the top group but need not belong to it."""
        maps = []
        ntop, nbase, n = self.top.order, self.base.order, self.n
        weights = np.array([nbase ** (n - 1 - j) * ntop for j in range(n)], dtype=np.int64)
        top, top_inv = self.top.elements, self.top.elements[self.top.inverse_ids()]
        for kbase, psi in conjugators:
            k = np.asarray(kbase, dtype=np.int64)
            psi_img = np.asarray(psi, dtype=np.int64)
            psi_inv = np.argsort(psi_img)
            top_map = self.top.ids_of(psi_img[top[:, psi_inv]])  # psi sigma psi^-1
            col2 = psi_img[top_inv[:, psi_inv]]
            right = self.base_inv[k][col2].T  # right[j, s] = k^-1 at coordinate col2[s, j]
            tables = self.T[self.T[k][:, None, :], right[:, :, None]] * weights[:, None, None]
            tables[0] += top_map[:, None]
            maps.append((psi_inv, tables.reshape(n, ntop * nbase)))
        return maps

    def _table_rows(self, codes: np.ndarray) -> np.ndarray:
        """Row i holds each code's row in coordinate i's conjugation tables:
        t*|G| + B[i], for top id t and base ids B."""
        B, t = self._unpack_codes(codes)
        B += t * self.base.order
        return B

    @staticmethod
    def _conjugate_rows(B: np.ndarray, maps) -> Iterable[np.ndarray]:
        """Each map's images of the codes whose table rows are the columns of
        B, one map at a time."""
        for psi_inv, tables in maps:
            image = np.take(tables[0], B[psi_inv[0]])
            for table, i in zip(tables[1:], psi_inv[1:]):
                image += np.take(table, B[i])
            yield image

    def conjugation_orbit(self, seeds: Sequence[WreathElement],
                          conjugators: Iterable[tuple[Sequence[int], np.ndarray]]
                          ) -> int:
        """The size of the closure of `seeds` under conjugation, swept a block
        at a time and counted off a visited array indexed by packed code, so
        the whole wreath group must fit in DEFAULT_ORBIT_SPACE cells."""
        check_sweep_size(self.order)
        maps = self._conjugation_maps(conjugators)
        visited = np.zeros(self.order, dtype=bool)
        for _ in sweep([self.pack(w) for w in seeds],
                       lambda frontier: self._conjugate_rows(self._table_rows(frontier), maps),
                       visited):
            pass
        return int(np.count_nonzero(visited))

    def standard_conjugators(self) -> list[tuple[tuple, np.ndarray]]:
        """Generators of the wreath group itself, as (base tuple, top row) pairs:
        base generators planted at the least point of each orbit of the top on
        0..n-1, plus the top generators.  Conjugation by the top carries a
        planted generator to every coordinate of its orbit, so these generate
        the base group in every coordinate."""
        planted = orbits(iter(self.top.elements[self.top.gen_ids]), self.n)[0].tolist()
        out = []
        ident = np.arange(self.n)
        for g in self.base.gen_ids.tolist():
            for i in planted:
                base = [0] * self.n
                base[i] = g
                out.append((tuple(base), ident))
        for c in self.top.gen_ids:
            out.append(((0,) * self.n, self.top.elements[c]))
        return out

    def class_codes(self, limit: int = DEFAULT_CLOSURE_LIMIT) -> np.ndarray:
        """class_codes[packed code] = conjugacy class id (orbits of the
        conjugation maps on every packed code), numbered by minimal code.  The
        codes' table rows are unpacked a block at a time and kept in their
        narrowest type; each map's images are built from them as `orbits`
        merges the maps one at a time, in int64, which it gathers by fastest."""
        if self._enum_classes is not None:
            return self._enum_classes
        if self.order > limit:
            raise TooLarge(f"wreath group order {size_text(self.order)} exceeds limit {limit}")
        maps = self._conjugation_maps(self.standard_conjugators())

        def images():
            narrow = np.min_scalar_type(self.top.order * self.base.order - 1)
            rows = [self._table_rows(np.arange(b.start, b.stop)).astype(narrow)
                    for b in _row_blocks(64, self.order)]
            for m in maps:
                yield np.concatenate([next(self._conjugate_rows(B, [m])) for B in rows])

        self._enum_classes = orbits(images(), self.order)[1]
        return self._enum_classes

    def random_codes(self, rng, count: int) -> np.ndarray:
        """Packed codes of `count` uniform elements, each drawn as n base ids,
        then a top id."""
        highs = np.tile([self.base.order] * self.n + [self.top.order], count)
        draws = rng.integers(highs).reshape(count, self.n + 1).T
        return self._pack_arrays(draws[:-1], draws[-1])

    def _bcpc_rows(self, codes: np.ndarray, radix: int) -> np.ndarray:
        """Each code's row, unsorted: length * nclass + class + 1 for each
        cycle of its top, in cycle_decompose's order, padded with 0, in the
        narrowest type of `radix`.  Grouped by top id, the backward products
        along each cycle are gathers on the Cayley table, a block of codes at
        a time."""
        table = conjugacy_classes(self.base)
        nclass, ntop = len(table.least), self.top.order
        rows = np.zeros((codes.size, self.n), dtype=np.min_scalar_type(radix - 1))
        t = np.empty(codes.size, dtype=np.min_scalar_type(ntop - 1))
        for b in _row_blocks(64, codes.size):
            t[b] = codes[b] - codes[b] // ntop * ntop
        order = np.argsort(t, kind="stable")  # a radix sort: t is 16 bits or less
        for s, at in enumerate(np.split(order, np.cumsum(np.bincount(t, minlength=ntop))[:-1])):
            cycles = cycle_decompose(self.top.elements[s])
            entries = [(len(zeta) * nclass + 1 + table.class_of).astype(rows.dtype)
                       for zeta in cycles]
            for b in _row_blocks(64, at.size):
                part = at[b]
                B = self._unpack_codes(codes[part])[0]
                for j, zeta in enumerate(cycles):
                    acc = B[zeta[0]]
                    for i in zeta[1:]:
                        acc = self.T[B[i], acc]
                    rows[part, j] = entries[j][acc]
        return rows

    def profile_labels(self, codes: np.ndarray) -> np.ndarray:
        """One label per packed code, equal for two codes iff they have the
        same top cycle type and the same M_l for every l: the array form of
        `conj_test`.  The labels number the distinct sorted `_bcpc_rows` from 0
        in lexicographic order.  As many columns as fit 62 bits are folded,
        with the labels so far, into one key per code in radix
        R = nclass * (n + 1) + 1, and the distinct keys numbered, once per fold."""
        codes = np.asarray(codes, dtype=np.int64)
        radix = len(conjugacy_classes(self.base).least) * (self.n + 1) + 1
        rows = self._bcpc_rows(codes, radix)
        rows.sort(axis=1)
        labels, count, col = np.zeros(codes.size, dtype=np.intp), 1, 0
        while col < self.n:  # fold columns col..end-1 into keys below count * R**(end - col)
            end, span = col, count
            while end < self.n and span * radix <= 1 << 62:
                end, span = end + 1, span * radix
            # 32 bits at least: numpy's argsort of 16-bit keys is not vectorized
            key = labels.astype(np.uint32 if span <= 1 << 32 else np.uint64)
            del labels
            for column in rows[:, col:end].T:
                key *= radix
                key += column
            uniq, labels = np.unique(key, return_inverse=True)
            count, col = uniq.size, end
        return labels


def _validate_cycle(wg: WreathGroup, w: WreathElement, zeta: Sequence[int]) -> tuple[int, ...]:
    zeta = tuple(int(z) for z in zeta)
    img = wg.top.elements[w.top]
    for a, b in zip(zeta, zeta[1:] + zeta[:1]):
        if int(img[a]) != b:
            raise NotACycleOfTop(f"{zeta} is not a cycle of the permutation part")
    return zeta


def bcpc_element(wg: WreathGroup, w: WreathElement, zeta: Sequence[int]) -> int:
    """Element id of g_{i_l} * g_{i_{l-1}} * ... * g_{i_1} for the cycle
    zeta = (i_1, ..., i_l) of the top."""
    zeta = _validate_cycle(wg, w, zeta)
    acc = w.base[zeta[0]]
    for i in zeta[1:]:
        acc = int(wg.T[w.base[i], acc])
    return acc


def bcpc(wg: WreathGroup, w: WreathElement, zeta: Sequence[int]) -> int:
    """Backward cycle product class: base-group class id of the backward
    product along zeta."""
    table = conjugacy_classes(wg.base)
    return int(table.class_of[bcpc_element(wg, w, zeta)])


def profile(wg: WreathGroup, w: WreathElement, typing=None) -> BcpcProfile:
    """M_l(w) for each cycle length l; with `typing` (a ClassTypeTable for the
    base) also the refined M_l^tau(w)."""
    by_length: dict[int, list] = {}
    refined: dict[tuple, list] = {}
    for zeta in cycle_decompose(wg.top.elements[w.top]):
        cls = bcpc(wg, w, zeta)
        by_length.setdefault(len(zeta), []).append(cls)
        if typing is not None:
            tau = int(typing.type_of_class[cls])
            refined.setdefault((len(zeta), tau), []).append(cls)
    plain = {l: tuple(sorted(v)) for l, v in by_length.items()}
    if typing is None:
        return BcpcProfile(plain)
    return BcpcProfile(plain, {k: tuple(sorted(v)) for k, v in refined.items()})


def conj_test(wg: WreathGroup, v: WreathElement, w: WreathElement) -> bool:
    """Combinatorial conjugacy test: equal top cycle types and equal bcpc
    multisets M_l for every l."""
    if cycle_type(wg.top.elements[v.top]) != cycle_type(wg.top.elements[w.top]):
        return False
    return profile(wg, v).by_length == profile(wg, w).by_length


def brute_force_conj(wg: WreathGroup, v: WreathElement, w: WreathElement,
                     limit: int = DEFAULT_CLOSURE_LIMIT) -> bool:
    """Oracle: conjugacy decided on the full enumeration of the wreath group."""
    codes = wg.class_codes(limit=limit)
    return codes[wg.pack(v)] == codes[wg.pack(w)]


# -- the large-orbit construction over Aut(S) --------------------------------

@dataclass
class HpConstruction:
    order: int
    predicted_orbit: int
    measured_orbit: int
    maol_lower_bound: Fraction  # (p-1)/p * maol(Aut(S))

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "predicted": self.predicted_orbit,
            "measured": self.measured_orbit,
            "maolLowerBound": encode_value(self.maol_lower_bound),
        }


def build_hp(A: FiniteGroup, p: int) -> HpConstruction:
    """A wr <sigma> for A = Aut(S), S simple, and a p-cycle sigma, with the
    distinguished element alpha = (alpha_1, 1, ..., 1) sigma, alpha_1 from a
    largest conjugacy class of Aut(S).  Aut(S) is complete for simple S, so its conjugacy classes are
    its automorphism orbits and the predicted orbit length of alpha is
    (p-1) * |alpha_1^Aut(S)| * |Aut(S)|^(p-1).

    The measured orbit closes alpha under Aut(S) wr N_{Sym_p}(<sigma>), the
    automorphism group of the construction: the wreath group's
    `standard_conjugators` (Aut(S)'s generators in coordinate 0, and sigma)
    and the power map sigma -> sigma^u for u the primitive element of F_p,
    which with sigma generates the normalizer."""
    check_sweep_size(A.order ** p * p)  # before the top group and the classes of Aut(S)
    sigma = (np.arange(p) + 1) % p
    wg = WreathGroup(A, p, top=sigma[None])
    if wg.top.order != p:
        raise GroupError("top group is not the cyclic group of the p-cycle")

    table = conjugacy_classes(A)
    sizes = table.sizes
    best_class = max(range(len(sizes)), key=lambda c: (sizes[c], -c))
    alpha1 = table.representative(best_class)
    alpha = wg.element([alpha1] + [0] * (p - 1), sigma)
    predicted = (p - 1) * sizes[best_class] * A.order ** (p - 1)

    conjugators = wg.standard_conjugators()
    if p > 2:  # the power map
        conjugators.append(((0,) * p, np.arange(p) * make_field(p, 1).primitive_element() % p))
    measured = wg.conjugation_orbit([alpha], conjugators)

    return HpConstruction(
        order=wg.order,
        predicted_orbit=predicted,
        measured_orbit=measured,
        maol_lower_bound=Fraction(p - 1, p) * Fraction(max(sizes), A.order),
    )
