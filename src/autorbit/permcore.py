"""Engine for groups of permutation rows: exhaustive enumeration, conjugacy, quotients.

Conventions, fixed globally:

* points are 0-based;
* an element is its image row; composition is right-to-left: the product
  p*q of rows p and q is ``p[q]``, which maps ``x`` to ``p(q(x))``;
* groups store their full element list, sorted lexicographically by image
  array (no two elements agree on the base, so the points up to its largest
  one decide the order: `lex_order`), so element ids (and everything derived
  from them: class numbering, coset numbering, orbit output) are reproducible;
* the identity is always element id 0 (it is the lexicographic minimum);
* a row's entries take the narrowest type of its points (`point_dtype`): uint8
  up to 256 points, else uint16; keys are uint64, so no id depends on it.

A group is built from a (k, degree) array of generator rows (``close_group``);
rows read from outside the program are checked first (`_check_bijection`).
Its stabilizer chain (``schreier_sims``) starts at z, the least point the rows
move, and keeps a generator outside the group of the kept ones before it
(Dimino's rule); it builds no element, and its orbit lengths give the order,
checked against the limit.  ``close_group`` enumerates it: each element is one
product of transversal rows, in runs of one image of z, which the canonical
order keeps (`sort_rows` gathers a block of runs at a time).  A subgroup of a
finished group closes by the chain of its members' rows, the one place that
drops a generator by Dimino's rule, or by a `sweep` of the Cayley table where
the Aut search holds one.  Elements are keyed by their images of the chain's
base in one sorted index (`_RowIndex`, a Horner fold exact while radix^|base|
<= 2^(64-p)).  A whole-group key sort is one
`np.sort` of key << p | position, p bits holding a row position
(`_sort_packed`): the index, `locate_all` and `lex_order`.  A membership test
(`ids_of`) confirms each key hit on the full row; a product or conjugate of
members is a member, so the Cayley table, conjugation maps and a quotient's
cosets look it up by its base images alone.  Products and cosets
search their keys one by one (`_RowIndex.locate`); the conjugates of G are a
permutation of G, so a whole-group map's keys are the stored ones reordered
(`FiniteGroup.map_ids`, `_RowIndex.locate_all`).  `orbits` gives each orbit's
least point and each point's orbit; a class table lists its members only when
asked.  A group's ``gen_ids`` are the ids of its kept, irredundant
generators, and conjugation by an element id is one id map of the whole group
(`FiniteGroup.conjugation_ids`); a set is normal iff it is a union of
conjugacy classes (`is_normal`).

`cycle_decompose` keeps a row's 1-cycles; cycle strings at the I/O boundary
use 1-based points, e.g. ``"(1 2)(3 4 5)"``.
"""

from __future__ import annotations

import json
import re
from collections import deque, namedtuple
from dataclasses import dataclass
from math import log10, prod
from typing import Iterable, Sequence

import numpy as np

DEFAULT_CLOSURE_LIMIT = 2_000_000
_BLOCK_CELLS = 1 << 20  # entries of one temporary in blocked row operations

MAX_DEGREE = 2 ** 16  # the degree guard: every point must fit a uint16


class GroupError(Exception):
    """Base class for errors raised by this package."""


class ResourceLimit(GroupError):
    """A size, budget or limit check stopped the computation before an answer."""


class ClosureLimitExceeded(ResourceLimit):
    pass


class BadParameter(GroupError):
    pass


class GeneratorDeficiency(GroupError):
    """A chosen generating set closed to the wrong order; construction bug."""


class TooLarge(ResourceLimit):
    """An input is larger than a fixed guard of the routine it was given to."""


class NotNormal(GroupError):
    pass


def size_text(n: int) -> str:
    """n, or past 30 digits a power of ten: str() refuses ints of over 4300 digits."""
    return str(n) if n < 10 ** 30 else f"about 10^{log10(n):.1f}"


def _check_degree(degree: int):
    if degree > MAX_DEGREE:
        raise TooLarge(f"degree {degree} exceeds the degree guard MAX_DEGREE = {MAX_DEGREE}")


def point_dtype(degree: int) -> type:
    """The entry type of a row of `degree` points: uint8 up to 256 points, else uint16."""
    return np.uint8 if degree <= 256 else np.uint16


def _as_points(values, degree: int, error: type[Exception]) -> np.ndarray:
    """`values` cast to `point_dtype(degree)`; raises `error` if the cast would change one."""
    arr, dtype = np.asarray(values), point_dtype(degree)
    if arr.dtype != dtype and arr.size and not (
            arr.dtype.kind in "iu" and 0 <= arr.min() and arr.max() < degree):
        raise error(f"values are not points in 0..{degree - 1}")
    return arr.astype(dtype, copy=False)


def _check_bijection(images) -> np.ndarray:
    """`images` as a row of `point_dtype(len)`, checked to be a permutation of 0..len-1."""
    _check_degree(len(images))
    row = _as_points(images, len(images), ValueError)
    if row.ndim != 1 or row.size == 0:
        raise ValueError("images must be a non-empty 1-d sequence")
    if not np.array_equal(np.sort(row), np.arange(row.size)):
        raise ValueError("images is not a bijection on {0,...,degree-1}")
    return row


def cycle_decompose(row: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The row's cycles, 1-cycles kept, each rotated to start at its least
    point and listed in the order of those points."""
    seen = np.zeros(len(row), dtype=bool)
    cycles = []
    for start in range(len(row)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = int(row[start])
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = int(row[x])
        cycles.append(tuple(cyc))
    return tuple(cycles)


def cycle_type(row: np.ndarray) -> tuple[int, ...]:
    """Multiset of cycle lengths (1-cycles included), sorted descending."""
    return tuple(sorted((len(c) for c in cycle_decompose(row)), reverse=True))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> np.ndarray:
    """The row of a 1-based cycle string like "(1 2)(3 4 5)", checked to be a
    permutation: a point repeated across cycles is refused."""
    images = np.arange(degree, dtype=point_dtype(degree))
    body = text.strip()
    chunks = _CYCLE_RE.findall(body)
    if _CYCLE_RE.sub("", body).strip():
        raise ValueError(f"unparsed text in cycle string {text!r}")
    for chunk in chunks:
        pts = [int(tok) - 1 for tok in chunk.replace(",", " ").split()]
        if not pts:
            continue
        if any(x < 0 or x >= degree for x in pts):
            raise ValueError(f"point out of range 1..{degree} in {text!r}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle ({chunk}) of {text!r}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return _check_bijection(images)


def _horner(images: np.ndarray, radix: int) -> np.ndarray:
    """One uint64 key per row, the Horner fold k = k*radix + x of its columns mod
    2^64, each cast to uint64 as it is added: int64 rows key as point rows do."""
    key = images[:, 0].astype(np.uint64)
    for j in range(1, images.shape[1]):
        key *= np.uint64(radix)  # in place: a key array is 8 bytes per row
        np.add(key, images[:, j], out=key, dtype=np.uint64, casting="unsafe")
    return key


def _sort_packed(keys: np.ndarray, p: int) -> np.ndarray:
    """keys << p | position, sorted (p bits hold len(keys) - 1), packed a block at
    a time, with no full-length array of positions: `& (1 << p) - 1` reads them."""
    packed = np.empty(len(keys), dtype=np.uint64)
    for block in _row_blocks(64, len(keys)):
        np.left_shift(keys[block], p, out=packed[block])
        packed[block] |= np.arange(block.start, block.stop, dtype=np.uint64)
    packed.sort()
    return packed


def lex_order(rows: np.ndarray, base: Sequence[int]) -> np.ndarray:
    """The permutation that sorts `rows` lexicographically, given a `base` on
    which no two of them agree: two rows then first differ at a point no
    larger than max(base), so the points 0..max(base) decide the order.  An LSD
    sort, from the right, of the exact fold of as many of them as fit 64 - p
    bits, packed over the ranks in the order so far (`_sort_packed`): stable."""
    radix, stop, p = rows.shape[1] | 1, max(base) + 1, (len(rows) - 1).bit_length()
    width = next(c for c in range(1, stop + 1) if c == stop or radix ** (c + 1) > 1 << 64 - p)
    order = None
    for hi in range(stop, 0, -width):
        keys = _horner(rows[:, max(hi - width, 0):hi], radix)
        keys = keys if order is None else keys[order]  # the unordered keys go before the sort
        at = _sort_packed(keys, p).view(np.int64)
        del keys
        at &= (1 << p) - 1
        order = at if order is None else np.take(order, at, out=at, mode="clip")  # in place
    return order


def sort_rows(rows: np.ndarray, base: Sequence[int], run: int) -> np.ndarray:
    """Put `rows` in `lex_order` in place and return them, given that the order maps
    each run of `run` rows onto itself: whole rows, gathered a block of runs at a time."""
    order, step = lex_order(rows, base), run * _block_length(8 * run * rows.shape[1])
    for lo in range(0, len(rows), step):  # a block as `_compose` takes, or one run
        rows[lo:lo + step] = np.take(rows, order[lo:lo + step], axis=0)
    return rows


class _RowIndex:
    """Distinct permutation rows looked up by their images of a base on which
    no two of them agree.  A key is the weighted sum of the base columns, the
    weights `w` the powers of the radix degree|1 (`_fold`), cut to 64 - p bits,
    p those of a row position (exact mixed radix, ordered as the images are,
    while radix^|base| <= 2^(64-p), and past that a hash); a whole-group map
    folds w into its g once (`FiniteGroup.map_ids`).  The keys are kept sorted,
    with each key's int32 row position: one sort of them packed (`_sort_packed`)."""

    def __init__(self, rows: np.ndarray, base: Sequence[int] = (0,)):
        self.rows, self._radix = rows, rows.shape[1] | 1
        self._rekey(list(base))

    def _fold(self, images: np.ndarray) -> np.ndarray:
        """One uint64 key per row of base images, wrapped mod 2^64 (`_horner`)."""
        return _horner(images, self._radix)

    def _rekey(self, base: list[int]):
        """Key the rows on `base`, which must tell them apart; a key two share (the
        wrapped fold) adds the first free point where they differ, or the first free one."""
        self._p = (len(self.rows) - 1).bit_length()  # the rows may have grown
        self.w = np.uint64(self._radix) ** np.arange(len(base) - 1, -1, -1, dtype=np.uint64)
        packed = _sort_packed(self._fold(self.rows[:, base]), self._p)
        self.base, self._keys = base, packed >> self._p
        packed &= (1 << self._p) - 1
        self._ids = packed.astype(np.int32)
        same = np.flatnonzero(self._keys[1:] == self._keys[:-1])
        if same.size:
            a, b = self.rows[self._ids[same[0]:same[0] + 2]]
            free = np.setdiff1d(np.arange(len(a)), base)
            if np.array_equal(a[base], b[base]):
                raise GroupError(f"two stored rows agree on the base {base}")
            if not free.size:
                raise GroupError(f"keys collide on the base {base}, which holds every point")
            self._rekey(base + [int(free[np.argmax(a[free] != b[free])])])

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Slot of the one stored key that can equal each of `keys` (cut to 64 - p bits in place)."""
        keys &= np.uint64((1 << 64 - self._p) - 1)
        slots = np.searchsorted(self._keys, keys)
        return np.minimum(slots, len(self._keys) - 1, out=slots)

    def locate(self, images: np.ndarray) -> np.ndarray:
        """Store positions of the rows with these base images; raises if a key
        is not stored.  Exact only for stored rows: another row may share a key."""
        keys = self._fold(images)
        at = self._slots(keys)
        if not np.array_equal(self._keys[at], keys):
            raise GroupError("no stored row has these base images")
        return self._ids[at]

    def locate_all(self, keys: np.ndarray) -> np.ndarray:
        """`locate` for uint64 keys that are the stored ones reordered: one packed
        sort, checked block by block against them; the ids then reuse the keys' memory."""
        if len(keys) != len(self._keys):
            raise GroupError("the keys are not the stored keys")
        packed = _sort_packed(keys, self._p)
        for block in _row_blocks(64, len(keys)):
            if not np.array_equal(packed[block] >> self._p, self._keys[block]):
                raise GroupError("the keys are not the stored keys")
        packed &= (1 << self._p) - 1
        ids = keys.view(np.int64)
        ids[packed.view(np.int64)] = self._ids
        return ids

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Store position of each row, -1 where the row is not stored."""
        pos = self._ids[self._slots(self._fold(rows[:, self.base]))].astype(np.int64)
        stored = self.rows[pos]
        if np.array_equal(stored, rows):
            return pos
        return np.where(np.all(stored == rows, axis=1), pos, -1)


def cycle_lengths(rows: np.ndarray) -> np.ndarray:
    """Length of the cycle through each point, row by row.  Pointer jumping:
    after t rounds each point's label is the least point among its next 2^t
    images; once no label moves, each label is its cycle's least point."""
    jump = np.asarray(rows, dtype=np.int64)
    k, d = jump.shape
    label = np.broadcast_to(np.arange(d), (k, d))
    while True:
        new = np.minimum(label, np.take_along_axis(label, jump, axis=1))
        if np.array_equal(new, label):
            break
        label, jump = new, np.take_along_axis(jump, jump, axis=1)
    flat = label + d * np.arange(k)[:, None]
    return np.bincount(flat.ravel(), minlength=k * d)[flat]


def _block_length(width: int) -> int:
    """The rows, `width` entries each, that fill one block (one at least)."""
    return max(1, _BLOCK_CELLS // max(1, width))


def _row_blocks(width: int, n: int):
    """Slices of 0..n-1 whose rows, `width` entries each, fill one block."""
    step = _block_length(width)
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _compose(table: np.ndarray, which: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The rows table[which[i]] * q[i], a block at a time ("clip": unbuffered)."""
    out, d, flat = np.empty_like(q), q.shape[1], table.ravel()
    for rows in _row_blocks(8 * d, len(q)):  # the gather's intp indices
        flat.take(q[rows] + which[rows, None] * d, out=out[rows], mode="clip")
    return out


class _Level:
    """A level of a stabilizer chain (Seress 2003, ch. 4): a base point, the strong
    generators fixing the base points before it, and for each point x of its orbit,
    at `pos[x]` (-1 off it), rows `U` of a u with u(point) = x and `inv` of u^-1.
    The first `done` rows' and generators' Schreier generators pass."""

    def __init__(self, point: int, degree: int):
        self.point, self.done = point, (0, 0)
        self.gens = np.empty((0, degree), point_dtype(degree))
        self.pos = np.full(degree, -1)
        self.pos[point] = 0
        self.U = self.inv = np.arange(degree, dtype=point_dtype(degree))[None, :]

    def add(self, h: np.ndarray):
        """Add the generator h; a new orbit point s(x) gets s*u, u x's row, and its inverse,
        scattered from s*u.  The old generators keep the old orbit: the first pass applies h,
        and the first pass that finds no new point ends the orbit."""
        self.gens = np.concatenate([self.gens, h[None, :]])
        gens, rows, parts = self.gens[-1:], self.U, [self.U]
        while True:
            flat = gens.take(rows[:, self.point], axis=1).ravel()  # generator-major images
            if not len(new := (self.pos.take(flat) < 0).nonzero()[0]):
                break
            if len(new) > 1:  # each new point at its first image
                new = new[np.sort(np.unique(flat[new], return_index=True)[1])]
            self.pos[flat[new]] = np.arange(size := sum(map(len, parts)), size + len(new))
            s, at = np.divmod(new, len(rows))
            parts.append(rows := _compose(gens, s, rows[at]))
            gens = self.gens
        if len(parts) > 1:
            self.U, self.inv = np.concatenate(parts), np.concatenate([self.inv, *parts[1:]])
            new = np.arange(len(parts[0]), len(self.U))
            self.inv[new[:, None], self.U[new[0]:]] = np.arange(len(h))  # inv[i, U[i, x]] = x

    def schreier_rows(self):
        """For each generator s in turn, s and the rows u of `U` whose s*u is not yet
        known to pass: s*u sifts through this level with the u' of s(u(point)), then
        as u'^-1*s*u.  `passed` marks them all known."""
        return [(s, self.U[self.done[0] if k < self.done[1] else 0:])
                for k, s in enumerate(self.gens)]

    def passed(self):
        self.done = (len(self.U), len(self.gens))


def _schreier_stream(chain: list[_Level], top: int):
    """Chunks (rows, level of each) of the Schreier rows of levels top, top-1, ..., 0
    not yet known to pass, in that order and generator-major within a level, each
    chunk one block of rows; a row of level i fixes the base points before it."""
    step, parts, levels = _block_length(8 * chain[0].U.shape[1]), [], []
    for at in range(top, -1, -1):
        for s, U in chain[at].schreier_rows():
            while len(U):
                take, U = U[:step - len(levels)], U[step - len(levels):]
                parts.append(s[take])
                levels += [at] * len(take)
                if len(levels) == step:
                    yield np.concatenate(parts), levels
                    parts, levels = [], []
    if levels:
        yield np.concatenate(parts), levels


def _first_outside(chain: list[_Level], lo: int, rows: np.ndarray):
    """(i, residue, j) for the first of `rows` (fixing the base points before level
    lo) outside the group of levels lo.., sifted to level j, whose orbit misses
    its image (len(chain): it fixes the base but is not 1); None if none is.
    Rows are sifted on their base images, each level only those before the first
    miss so far, and compared in full only if they pass."""
    levels, d = chain[lo:], rows.shape[1]
    images = rows[:, [level.point for level in levels]].astype(np.int64)
    first, stop, at = len(rows), len(chain), []  # at[j]: the rows' u at level lo + j
    for j, level in enumerate(levels):
        if not first:
            break
        at.append(p := level.pos[images[:first, j]])
        if p.min() < 0:
            first, stop = int((p < 0).argmax()), lo + j
        if j + 1 < len(levels):
            images[:first, j + 1:] = level.inv[p[:first, None], images[:first, j + 1:]]
    if first:  # the rows before the first miss: u_lo * ... * u_k
        product = levels[-1].U[at[-1][:first]] if levels else np.arange(d)
        for j in range(len(levels) - 2, -1, -1):
            product = _compose(levels[j].U, at[j][:first], product)
        if not (inside := (product == rows[:first]).all(axis=1)).all():
            first, stop = int(inside.argmin()), len(chain)
    if first == len(rows):
        return None
    row = rows[first]
    for level, u in zip(chain[lo:stop], at):
        row = level.inv[u[first]][row]
    return first, row, stop


def _enumerate(chain: Chain, degree: int) -> np.ndarray:
    """The chain's elements u_0 * u_1 * ..., identity first: each row of a level times each
    product below it, written after them in place; level 0's by their images of z: |U_0| runs."""
    elements = np.empty((chain.order, degree), dtype=point_dtype(degree))
    elements[0], done = np.arange(degree), 1
    for level in reversed(chain.levels):
        U = level.U[level.pos[level.pos >= 0]] if level is chain.levels[0] else level.U
        for rows in _row_blocks(8 * degree, done):
            below = elements[rows].astype(np.intp)  # indices for every row of the level
            for a in range(1, len(U)):  # "clip": as in `_compose`
                np.take(U[a], below, out=elements[a * done:][rows], mode="clip")
        done *= len(U)
    return elements


Chain = namedtuple("Chain", "levels kept base run order")  # kept ascending; base [0] if trivial


def schreier_sims(gen_rows: np.ndarray, limit: int = DEFAULT_CLOSURE_LIMIT,
                  order: int | None = None) -> Chain:
    """The stabilizer chain of the group of the rows `gen_rows`, which builds no element: its
    levels, the kept generators' indices, its base ([0] if trivial), |G|/|U_0| (the rows of a run
    of one image of z) and |G|, the product of the orbit lengths.  It starts at z, the least
    point a row moves: the group fixes every point below z, so `lex_order` keeps the runs.  A row
    outside the group of the kept ones before it is kept (Dimino's rule), sifted in chunks
    doubling from the last kept one.  Its residue h joins the levels up to the one it reached
    (past the base: a new one at the least point h moves); deterministic Schreier–Sims completes
    the chain from there up (Holt, Eick & O'Brien 2005, §4.4.2), each round sifting the pending
    Schreier rows of that level and those below it as one stream (`_schreier_stream`).  The orbit
    lengths' product, at most |G|, is checked on `limit` as it grows, on `order` at the end."""
    moved = np.flatnonzero(np.any(gen_rows != np.arange(gen_rows.shape[1]), axis=0))
    chain, kept, start, step = [_Level(int(z), gen_rows.shape[1]) for z in moved[:1]], [], 0, 1
    while start < len(gen_rows):
        found = _first_outside(chain, 0, gen_rows[start:start + step])
        if found is None:
            start, step = start + step, 2 * step
            continue
        (i, h, j), lo = found, 0
        kept.append(start + i)
        start, step = kept[-1] + 1, 1
        while h is not None:  # h fixes the base points before level j
            if j == len(chain):
                chain.append(_Level(int(np.argmax(h != np.arange(h.size))), h.size))
            for level in chain[lo:j + 1]:
                level.add(h)
            if prod(len(level.U) for level in chain) > limit:
                raise ClosureLimitExceeded(f"closure exceeded limit {limit}")
            top, h, at = j, None, -1  # levels j, j-1, ..., 0 sift their Schreier rows at once
            for rows, levels in _schreier_stream(chain, top):
                if (found := _first_outside(chain, 0, rows)) is not None:
                    i, h, j = found
                    at = levels[i]
                    break
            for level in chain[at + 1:top + 1]:  # the levels that passed whole
                level.passed()
            lo = at + 1
    size = prod(len(level.U) for level in chain)
    if order is not None and size != order:
        raise GeneratorDeficiency(f"closed to order {size}, expected {order}")
    base, run = ([level.point for level in chain], size // len(chain[0].U)) if chain else ([0], 1)
    return Chain(chain, kept, base, run, size)


class FiniteGroup:
    """Fully enumerated permutation group with canonical element ids, looked
    up by their images of `base`, on which no two elements agree.  `elements`
    is closed under composition (`close_group` enumerates them), so a product of
    members is a member and its base images name it.  `gen_ids` are the ids of
    the rows `gen_rows` it is generated by; each must be a member."""

    def __init__(self, elements: np.ndarray, base: Sequence[int], gen_rows: np.ndarray,
                 name: str | None = None):
        self.elements = elements  # (order, degree), lexicographically sorted
        self.degree = int(elements.shape[1])
        self.name = name
        self._index = _RowIndex(elements, base)
        self.base = self._index.base
        self._inv_ids: np.ndarray | None = None
        self._classes: ConjClassTable | None = None
        self._cayley: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        if self.id_of(np.arange(self.degree)) != 0:
            raise GroupError("identity is not element id 0; enumeration broken")
        self.gen_ids = self.ids_of(np.reshape(gen_rows, (-1, self.degree)))  # refuses a non-member

    # -- basic queries ------------------------------------------------

    @property
    def order(self) -> int:
        return int(self.elements.shape[0])

    def ids_of(self, mat: np.ndarray) -> np.ndarray:
        """Vectorized element-id lookup by base images; raises if a row is
        not in the group."""
        mat = _as_points(mat, self.degree, GroupError)
        if mat.ndim != 2 or mat.shape[1] != self.degree:
            raise GroupError("permutation not in group")
        ids = self._index.find(mat)
        if np.any(ids < 0):
            raise GroupError("permutation not in group")
        return ids

    def id_of(self, row: np.ndarray) -> int:
        return int(self.ids_of(np.asarray(row)[None, :])[0])

    # -- id-level arithmetic -------------------------------------------

    def inverse_ids(self) -> np.ndarray:
        if self._inv_ids is None:
            self._inv_ids = self.ids_of(np.argsort(self.elements, axis=1))
        return self._inv_ids

    def mul_ids(self, i: int, j: int) -> int:
        return int(self.ids_of(self.elements[i][self.elements[j]][None, :])[0])

    def cayley(self) -> np.ndarray:
        """Full multiplication table on ids; built once, O(order^2) memory."""
        if self._cayley is None:
            n, E, b = self.order, self.elements, len(self.base)
            table = np.empty((n, n), dtype=np.int32)
            for rows in _row_blocks(n * b, n):
                block = np.take(E[rows], E[:, self.base], axis=1)  # E[i] * E[j] on the base
                table[rows] = self._index.locate(block.reshape(-1, b)).reshape(-1, n)
            ids = np.arange(n)
            if not (np.array_equal(table[0], ids) and np.array_equal(table[:, 0], ids)):
                raise GroupError("id 0 is not the identity of the Cayley table")
            if not (np.all(np.sort(table, axis=1) == ids)
                    and np.all(np.sort(table, axis=0) == ids[:, None])):
                raise GroupError("the Cayley table is not a Latin square")
            self._cayley = table
        return self._cayley

    def conjugation_ids(self, c: int) -> np.ndarray:
        """Ids of g x g^-1, g the element with id c, for every x in id order."""
        g = self.elements[c]
        return self.map_ids([self.elements[:, x] for x in np.argsort(g)[self.base]], g)

    def map_ids(self, columns: Sequence[np.ndarray], g: np.ndarray) -> np.ndarray:
        """Ids of the members with base images g(columns[j][i]), one for each i,
        whose keys must be the stored ones reordered (`locate_all`).  The weights
        fold into g once, table = w·g, and the key of i is the sum of
        table[j][columns[j][i]], summed a block of rows at a time."""
        table = self._index.w[:, None] * g.astype(np.uint64)
        keys = np.zeros(len(columns[0]), dtype=np.uint64)
        for block in _row_blocks(64, len(keys)):  # the rows a block reads stay in cache
            for weighted, column in zip(table, columns):
                keys[block] += np.take(weighted, column[block], mode="clip")
        return self._index.locate_all(keys)

    def element_orders(self) -> np.ndarray:
        """Each element's order, the lcm of its cycle lengths; int64 holds it,
        as every order divides |G|."""
        if self._orders is None:
            orders = np.empty(self.order, dtype=np.int64)
            for rows in _row_blocks(self.degree, self.order):
                orders[rows] = np.lcm.reduce(cycle_lengths(self.elements[rows]), axis=1)
            self._orders = orders
        return self._orders

    # -- structure -----------------------------------------------------

    def center_ids(self) -> np.ndarray:
        """The members of the classes of one element."""
        class_of = conjugacy_classes(self).class_of
        return np.flatnonzero(np.bincount(class_of)[class_of] == 1)

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order}, degree={self.degree})"


def close_group(gen_rows: np.ndarray, limit: int = DEFAULT_CLOSURE_LIMIT,
                name: str | None = None, order: int | None = None) -> FiniteGroup:
    """The group of the (k, degree) permutation rows `gen_rows`, k >= 0, of `order` if
    given: its chain (`schreier_sims`) enumerated, in the canonical order (`sort_rows`),
    with the kept generators and the chain's base.  The rows are trusted to be permutations:
    input from outside the program is checked before (`group_from_spec`)."""
    _check_degree(degree := np.shape(gen_rows)[1])  # before the rows are cast to their type
    rows = np.asarray(gen_rows, dtype=point_dtype(degree))
    chain = schreier_sims(rows, limit, order)
    elements, base, run, kept = _enumerate(chain, degree), chain.base, chain.run, chain.kept
    del chain  # its levels are not held through the sort and the index build
    return FiniteGroup(sort_rows(elements, base, run), base, rows[kept], name=name)


@dataclass
class ConjClassTable:
    """Conjugacy classes by element id, numbered by least member, so reproducibly:
    each class's least id and each element's class."""

    least: np.ndarray
    class_of: np.ndarray

    @property
    def classes(self) -> list[np.ndarray]:
        """Each class's ids, ascending, built on each call: a stable sort of the class
        ids in their narrowest type, one radix pass below 65,536 classes."""
        members = np.argsort(self.class_of.astype(np.min_scalar_type(len(self.least) - 1)),
                             kind="stable")
        return np.split(members, np.cumsum(self.sizes)[:-1])

    @property
    def sizes(self) -> list[int]:
        return np.bincount(self.class_of).tolist()

    def representative(self, class_id: int) -> int:
        return int(self.least[class_id])


def orbits(maps: Iterable[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits on 0..n-1 of the group generated by the id permutations `maps`: their
    least points, ascending, which number them, and each point's orbit.  The maps
    are merged one at a time, so an iterator holds one: each label hooks onto the
    least label of an image of its points, and labels follow labels, until they settle."""
    label = np.arange(n, dtype=np.int32 if n < 2 ** 31 else np.int64)
    for m in maps:
        while not np.array_equal(image := label[m], label):
            hooked = label.copy()
            np.minimum.at(hooked, label, image)
            while not np.array_equal(label := hooked[hooked], hooked):
                hooked = label
        del m, image  # not held while the next map is built
    root = label == np.arange(n)  # a least point is its own label
    return np.flatnonzero(root), (np.cumsum(root) - 1)[label]


def sweep(start: Sequence[int], step, seen: np.ndarray):
    """Close the distinct points `start` under injective maps, breadth first, in
    blocks of at most `_block_length(64)` points whose temporaries stay in cache.
    `step(block)` gives each map's images of the block's points, in map order;
    `seen` is a boolean mask over all points, in which the sweep marks `start`
    and every point it reaches.  Yields, per block and map, the map's index and
    the points it reaches that were not seen before: each point once, after the
    point it was reached from (an injective map sends no two points to one, and
    a point is marked as it is found).  The queue holds the pieces points were
    found in, about a level of them."""
    size, start = _block_length(64), np.asarray(start, dtype=np.int64)
    seen[start] = True
    queue = deque(start[i:i + size] for i in range(0, start.size, size))
    while queue:
        block, count = [queue.popleft()], 0
        while queue and (count := count + block[-1].size) + queue[0].size <= size:
            block.append(queue.popleft())
        block = np.concatenate(block) if len(block) > 1 else block[0]
        for k, images in enumerate(step(block)):
            new = seen.take(images)
            np.logical_not(new, out=new)
            found = images.compress(new)
            seen[found] = True
            if found.size:
                queue.append(found)
            yield k, found


def conjugacy_classes(G: FiniteGroup) -> ConjClassTable:
    """Classes as the orbits of the generators' conjugation id-permutations."""
    if G._classes is None:
        maps = (G.conjugation_ids(c) for c in G.gen_ids)
        G._classes = ConjClassTable(*orbits(maps, G.order))
    return G._classes


def mcs(G: FiniteGroup) -> int:
    """Minimum element-centralizer size = |G| / (largest conjugacy class)."""
    table = conjugacy_classes(G)
    return G.order // max(table.sizes)


def is_normal(G: FiniteGroup, subgroup_ids: np.ndarray) -> bool:
    """Whether the set of these ids is a union of conjugacy classes."""
    class_of, sub = conjugacy_classes(G).class_of, np.unique(subgroup_ids)
    return np.count_nonzero(np.isin(class_of, class_of[sub])) == sub.size


def coset_partition(G: FiniteGroup, subgroup_ids: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Right-coset labels: coset_of[x] for cosets N*g, numbered by minimal
    member id; the members n*x of N*x are looked up by base images n[x[base]]."""
    coset_of = np.full(G.order, -1, dtype=np.int64)
    reps: list[int] = []
    sub_rows = G.elements[np.asarray(subgroup_ids)]
    for x in range(G.order):
        if coset_of[x] >= 0:
            continue
        coset_of[G._index.locate(sub_rows[:, G.elements[x][G.base]])] = len(reps)
        reps.append(x)
    return coset_of, reps


Quotient = namedtuple("Quotient", "group pi")  # pi: ambient id -> id in group


def quotient_group(G: FiniteGroup, subgroup_ids: np.ndarray,
                   name: str | None = None) -> Quotient:
    """G/N on the right cosets N*r_j, generated by the translations j -> N*r_j*g
    of G's generators g, and the projection pi sending x in N*r_k to the
    translation j -> N*r_j*r_k^-1, checked to be a homomorphism on generators."""
    sub = np.asarray(subgroup_ids)
    if not is_normal(G, sub):
        raise NotNormal("subgroup is not normal")
    if schreier_sims(G.elements[sub]).order != np.unique(sub).size:
        raise GroupError("the normal set is not a subgroup")
    coset_of, reps = coset_partition(G, sub)
    E, R, gids = G.elements, G.elements[reps], G.gen_ids  # R: the representatives' rows
    qgens = [coset_of[G.ids_of(R[:, E[g]])] for g in gids]  # j -> N*r_j*g
    Q = close_group(np.reshape(qgens, (-1, len(reps))), name=name, order=len(reps))
    trans = np.array([coset_of[G.ids_of(R[:, E[g]])]
                      for g in G.ids_of(np.argsort(R, axis=1))])  # j -> N*r_j*r_k^-1
    pi = Q.ids_of(trans)[coset_of]
    if any(pi[G.mul_ids(g, x)] != Q.mul_ids(int(pi[g]), int(pi[x])) for g in gids for x in gids):
        raise GroupError("quotient projection is not a homomorphism")
    return Quotient(Q, pi)


def validate_automorphism(G: FiniteGroup, phi: np.ndarray) -> bool:
    """phi: id permutation of G. Checking phi(g*x) = phi(g)*phi(x) for all
    generators g and all x suffices for phi to be an automorphism."""
    phi, E = np.asarray(phi), G.elements
    if not (np.array_equal(np.sort(phi), np.arange(G.order)) and phi[0] == 0):
        return False
    return all(np.array_equal(phi[G.ids_of(E[g][E])], G.ids_of(E[phi[g]][E[phi]]))
               for g in G.gen_ids)


# -- group spec files ----------------------------------------------------

def group_from_spec(spec: dict, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    """Build a group from the JSON spec format:
    {"name": str, "degree": int, "generators": ["(1 2)(3 4)" | [images]]}.
    Each generator is checked to be a permutation before the group closes
    under `limit`."""
    degree, name = spec["degree"], spec.get("name")
    if type(degree) is not int or degree < 1:
        raise ValueError(f"degree must be an integer >= 1, got {degree!r}")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    _check_degree(degree)
    gens = []
    for k, item in enumerate(spec.get("generators", [])):
        if isinstance(item, str):
            gens.append(parse_cycles(item, degree))
        elif (isinstance(item, list) and len(item) == degree
              and all(type(x) is int and 0 <= x < degree for x in item)):
            gens.append(_check_bijection(item))
        else:
            raise ValueError(f"generator {k + 1} is not a list of {degree} "
                             f"integers in 0..{degree - 1}")
    return close_group(np.reshape(gens, (-1, degree)), limit=limit, name=name)


def load_group_file(path: str, limit: int = DEFAULT_CLOSURE_LIMIT) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_spec(json.load(fh), limit)
