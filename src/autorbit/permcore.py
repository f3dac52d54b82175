"""Engine for groups of permutation rows: exhaustive enumeration, conjugacy, quotients.

Conventions, fixed globally:

* points are 0-based;
* an element is its image row; composition is right-to-left: the product
  p*q of rows p and q is ``p[q]``, which maps ``x`` to ``p(q(x))``;
* groups store their full element list, sorted lexicographically by image
  array (no two elements agree on the base, so the points up to its largest
  one decide the order: `lex_order`), so element ids (and everything derived
  from them: class numbering, coset numbering, orbit output) are reproducible;
* the identity is always element id 0 (it is the lexicographic minimum).

A group is built from a (k, degree) array of generator rows (``close_group``);
rows read from outside the program are checked first (`_check_bijection`).
Groups are enumerated by one Dimino closure (``dimino``): a generator the
closure H already holds is dropped, and each kept generator adds the right
cosets H*r, one BFS level of coset representatives at a time.  A subgroup of
a finished group closes on ids by the same drop rule (`FiniteGroup.closure`,
subgroups only): each kept seed runs one `sweep` of right multiplication.
Elements are keyed by their images of a base, a point set on which no two
elements agree, in one sorted index (`_RowIndex`) that backs both the closure
and a group's `ids_of`.  The key is one uint64, a Horner fold of the base
images in radix degree|1: exact while radix^|base| < 2^64, a hash past that.
Only storing rows grows the base, when a new row shares its key with a
distinct one (equal base images, or a collision of the wrapped fold); a
lookup never moves it.  A membership test (`ids_of`) confirms each key hit on
the full row; a product or conjugate of members is a member, so the Cayley
table, conjugation maps and a quotient's cosets and translations form its
base images alone.  Products and cosets search their keys one by one
(`_RowIndex.locate`); the conjugates of all of G are a permutation of G, so
their keys are the stored ones reordered: one argsort, checked against them,
names every conjugate (`_RowIndex.locate_all`).  A group's ``gen_ids``
are the ids of its kept, irredundant generators, and conjugation by an
element id is one id map of the whole group (`FiniteGroup.conjugation_ids`);
a set is normal iff it is a union of conjugacy classes (`is_normal`).

`cycle_decompose` keeps a row's 1-cycles; cycle strings at the I/O boundary
use 1-based points, e.g. ``"(1 2)(3 4 5)"``.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from dataclasses import dataclass
from math import lcm, log10
from typing import Iterable, Sequence

import numpy as np

DEFAULT_CLOSURE_LIMIT = 2_000_000
_BLOCK_CELLS = 1 << 20  # entries of one temporary in blocked row operations

POINT_DTYPE = np.uint16  # permutation entries
MAX_DEGREE = 2 ** 16  # the degree guard: every point must fit POINT_DTYPE


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


def _as_points(values, degree: int, error: type[Exception]) -> np.ndarray:
    """`values` cast to POINT_DTYPE; raises `error` if the cast would change one."""
    arr = np.asarray(values)
    if arr.dtype != POINT_DTYPE and arr.size and not (
            arr.dtype.kind in "iu" and 0 <= arr.min() and arr.max() < degree):
        raise error(f"values are not points in 0..{degree - 1}")
    return arr.astype(POINT_DTYPE, copy=False)


def _check_bijection(images) -> np.ndarray:
    """`images` as a POINT_DTYPE row, checked to be a permutation of 0..len-1."""
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
    images = np.arange(degree, dtype=POINT_DTYPE)
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


def lex_order(rows: np.ndarray, base: Sequence[int]) -> np.ndarray:
    """The permutation that sorts `rows` lexicographically, given a `base` on
    which no two of them agree: two rows then first differ at a point no
    larger than max(base), so the points 0..max(base) decide the order."""
    return np.lexsort(rows[:, max(base)::-1].T)


def sort_rows(rows: np.ndarray, base: Sequence[int]) -> np.ndarray:
    """Put the C-contiguous `rows` in `lex_order` in place and return them: a
    third of the columns at a time, each row's third copied as one item."""
    order, step = lex_order(rows, base), -(-rows.shape[1] // 3)
    for lo in range(0, rows.shape[1], step):
        part = rows[:, lo:lo + step]
        items = part.view(np.dtype((np.void, part.shape[1] * part.itemsize)))[:, 0]
        items[:] = items[order]
    return rows


class _RowIndex:
    """Distinct permutation rows in the order they were stored, looked up by
    their images of a base on which no two stored rows share a key (`_fold`,
    radix degree|1; exact mixed radix, ordered as the images are, while
    radix^|base| < 2^64, and past that a hash).  The keys are kept sorted, with
    each key's int32 store position.  `find` is a pure lookup; only `add_new`
    extends the base, when a row it is given shares a key with a distinct row."""

    def __init__(self, rows: np.ndarray, base: Sequence[int] = (0,),
                 limit: int = DEFAULT_CLOSURE_LIMIT, size: int | None = None):
        self._buf, self.rows = rows, rows[:size]  # the used part; the buffer doubles when full
        self.limit, self._radix = limit, np.uint64(rows.shape[1] | 1)
        self._rekey(list(base))

    def _fold(self, images: np.ndarray) -> np.ndarray:
        """One uint64 key per row of base images, by the Horner fold k = k*radix + x."""
        key = images[:, 0].astype(np.uint64)
        for j in range(1, images.shape[1]):
            key *= self._radix  # in place: a key array is 8 bytes per row
            key += images[:, j]
        return key

    def _grow(self, a: np.ndarray, b: np.ndarray) -> list[int]:
        """The base plus the first point off it where the distinct rows a and b
        differ, or if they differ only on it (a hash collision) the first point off it."""
        free = np.setdiff1d(np.arange(len(a)), self.base)
        if not free.size:
            raise GroupError(f"keys collide on the base {self.base}, which holds every point")
        return self.base + [int(free[np.argmax(a[free] != b[free])])]

    def _rekey(self, base: list[int]):
        """Key the store on `base`, which must tell the stored rows apart."""
        keys = self._fold(self.rows[:, base])
        self.base, self._ids = base, np.argsort(keys).astype(np.int32)
        self._keys = keys[self._ids]
        same = np.flatnonzero(self._keys[1:] == self._keys[:-1])
        if same.size:
            a, b = self.rows[self._ids[same[0]:same[0] + 2]]
            if np.array_equal(a[base], b[base]):
                raise GroupError(f"two stored rows agree on the base {base}")
            self._rekey(self._grow(a, b))

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Slot of the one stored key that can equal each of `keys`."""
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
        """`locate` for uint64 keys that are the stored ones reordered: one argsort,
        checked block by block against them; the ids reuse the keys' memory."""
        order, step = np.argsort(keys), _BLOCK_CELLS >> 5
        for lo in range(0, max(len(keys), len(self._keys)), step):  # a length apart too
            if not np.array_equal(keys[order[lo:lo + step]], self._keys[lo:lo + step]):
                raise GroupError("the keys are not the stored keys")
        ids = keys.view(np.int64)
        ids[order] = self._ids
        return ids

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Store position of each row, -1 where the row is not stored."""
        pos = self._ids[self._slots(self._fold(rows[:, self.base]))].astype(np.int64)
        stored = self._buf[pos]
        if np.array_equal(stored, rows):
            return pos
        return np.where(np.all(stored == rows, axis=1), pos, -1)

    def add_new(self, batch: np.ndarray) -> np.ndarray:
        """Store the rows of `batch` that equal no stored row and no earlier
        row of `batch`, in their order; returns the mask of the rows stored.
        First the base grows until no two distinct rows, given or stored,
        share a key: a batch row's key is compared with the next one in key
        order and with the stored key it would be merged in next to."""
        size = len(self.rows)
        while True:
            keys = self._fold(batch[:, self.base])
            order = np.argsort(keys, kind="stable")  # equal rows: the first one first
            keys = keys[order]
            same = np.flatnonzero(keys[1:] == keys[:-1])
            slots = np.searchsorted(self._keys, keys)  # sorted queries search fastest
            at = np.minimum(slots, size - 1)
            hit = np.flatnonzero(self._keys[at] == keys)
            a = np.concatenate([batch[order[same]], self._buf[self._ids[at[hit]]]])
            b = batch[order[np.concatenate([same + 1, hit])]]
            clash = np.flatnonzero(np.any(a != b, axis=1))
            if not clash.size:
                break
            self._rekey(self._grow(a[clash[0]], b[clash[0]]))
        keep = np.ones(len(batch), dtype=bool)  # in key order
        keep[same + 1] = False  # a repeat of an earlier row of the batch
        keep[hit] = False  # a stored row
        new = np.zeros_like(keep)
        new[order] = keep
        need = size + int(np.count_nonzero(new))
        if need > self.limit:
            raise ClosureLimitExceeded(f"closure exceeded limit {self.limit}")
        if need > len(self._buf):  # capacity a power of two
            self._buf = np.empty((1 << (need - 1).bit_length(), self._buf.shape[1]), POINT_DTYPE)
            self._buf[:size] = self.rows  # still a view of the old buffer
        self._buf[size:need] = batch[new]
        self.rows = self._buf[:need]
        self._keys = np.insert(self._keys, slots[keep], keys[keep])
        self._ids = np.insert(self._ids, slots[keep], size + np.cumsum(new)[order[keep]] - 1)
        return new


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


def _order(images: np.ndarray) -> int:
    """Exact order of one permutation row: the lcm of its distinct cycle lengths."""
    return lcm(*np.unique(cycle_lengths(images[None, :])).tolist())


def _powers(g: np.ndarray, limit: int) -> np.ndarray:
    """Rows of g^0, ..., g^(o-1), o the order of g."""
    order = _order(g)
    if order > limit:
        raise ClosureLimitExceeded(f"closure exceeded limit {limit}")
    rows = np.empty((order, g.size), dtype=POINT_DTYPE)
    rows[0], done = np.arange(g.size), 1
    while done < order:  # g^(done+j) = g^j * g^done for j < done
        take = min(done, order - done)
        rows[done:done + take] = np.take(rows[:take], rows[done - 1][g], axis=1)
        done += take
    return rows


def _add_cosets(index: _RowIndex, H: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Store the right cosets H*c of the candidates c the store does not hold,
    each distinct coset once; returns the candidates that added a coset.  A batch
    (1/32 of the buffer, within 1/32 block and a block) is whole cosets or a slice of one."""
    m, degree = H.shape
    rows = max(1, min(max(len(index._buf), _BLOCK_CELLS // degree) >> 5, _BLOCK_CELLS // degree))
    step = max(1, rows // m)
    added = []
    for lo in range(0, len(cands), step):
        reps = cands[lo:lo + step]
        reps = reps[index.find(reps) < 0]
        if not reps.size:
            continue
        for at in range(0, m, rows):
            cosets = np.take(H[at:at + rows], reps, axis=1).transpose(1, 0, 2)  # H[0] = 1
            new = index.add_new(cosets.reshape(-1, degree))
        added.append(reps[new[::m]])  # a coset is new or repeats whole
    return np.concatenate(added) if added else np.empty((0, degree), POINT_DTYPE)


Closure = namedtuple("Closure", "elements kept base")  # identity first; kept ascending


def dimino(gen_rows: np.ndarray, limit: int = DEFAULT_CLOSURE_LIMIT,
           order: int | None = None) -> Closure:
    """Dimino's closure of the permutation rows `gen_rows` (Butler 1991): the
    elements, the indices of the kept generators and a base on which no two
    elements agree.  A generator the closure H of the kept ones already holds
    is dropped; a kept generator g grows H to <H, g> by right cosets H*r,
    handling the candidate representatives r*s (s kept) of one BFS level
    together.  For the first kept generator H = 1: the cosets are g's powers.
    Given the `order` (within `limit`), the elements must fill one array that size."""
    gen_rows = np.asarray(gen_rows, dtype=POINT_DTYPE)
    degree = gen_rows.shape[1]
    if order is not None and order > limit:
        raise ClosureLimitExceeded(f"closure exceeded limit {limit}")
    buf = np.empty((order or 1, degree), POINT_DTYPE)  # sized once if the order is known
    buf[0] = np.arange(degree)
    index = _RowIndex(buf, limit=limit, size=1)
    kept: list[int] = []
    start = 0
    while True:
        missing = np.flatnonzero(index.find(gen_rows[start:]) < 0)
        if not missing.size:
            if order is not None and len(index.rows) != order:
                raise GeneratorDeficiency(f"closed to order {len(index.rows)}, expected {order}")
            return Closure(index.rows, kept, index.base)
        start += int(missing[0])
        kept.append(start)
        H, kept_rows, g = index.rows, gen_rows[kept], gen_rows[start]
        start += 1
        if len(kept) == 1:  # H = 1: <g> is g's powers
            index.add_new(_powers(g, limit)[1:])
            continue
        cands = g[None, :]
        while cands.size:
            reps = _add_cosets(index, H, cands)
            cands = np.take(reps, kept_rows, axis=1).reshape(-1, degree)


class FiniteGroup:
    """Fully enumerated permutation group with canonical element ids, looked
    up by their images of `base`, on which no two elements agree.  `elements`
    is closed under composition (every constructor takes it from `dimino`), so
    a product of members is a member and its base images name it.  `gen_ids`
    are the ids of the rows `gen_rows` it is generated by; each must be a member."""

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
        self._center: np.ndarray | None = None
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

    def _row_blocks(self, width: int, n: int):
        """Slices of 0..n-1 whose rows, `width` entries each, fill one block."""
        step = max(1, _BLOCK_CELLS // max(1, width))
        return (slice(lo, lo + step) for lo in range(0, n, step))

    def inverse_ids(self) -> np.ndarray:
        if self._inv_ids is None:
            self._inv_ids = self.ids_of(np.argsort(self.elements, axis=1))
        return self._inv_ids

    def mul_ids(self, i: int, j: int) -> int:
        if self._cayley is not None:
            return int(self._cayley[i, j])
        return int(self.ids_of(self.elements[i][self.elements[j]][None, :])[0])

    def cayley(self) -> np.ndarray:
        """Full multiplication table on ids; built once, O(order^2) memory."""
        if self._cayley is None:
            n, E, b = self.order, self.elements, len(self.base)
            table = np.empty((n, n), dtype=np.int32)
            for rows in self._row_blocks(n * b, n):
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
        return self.map_ids(self.elements, g, np.argsort(g)[self.base])

    def map_ids(self, rows: np.ndarray, g: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Ids of the members with base images g(x(cols)), one for each row x of
        `rows`, whose keys must be the stored ones reordered (`locate_all`)."""
        keys = np.empty(len(rows), dtype=np.uint64)
        for block in self._row_blocks(8 * len(cols), len(rows)):
            keys[block] = self._index._fold(np.take(g, rows[block, cols]))
        return self._index.locate_all(keys)

    def element_orders(self) -> np.ndarray:
        """Each element's order, the lcm of its cycle lengths; int64 holds it,
        as every order divides |G|."""
        if self._orders is None:
            orders = np.empty(self.order, dtype=np.int64)
            for rows in self._row_blocks(self.degree, self.order):
                orders[rows] = np.lcm.reduce(cycle_lengths(self.elements[rows]), axis=1)
            self._orders = orders
        return self._orders

    # -- structure -----------------------------------------------------

    def center_ids(self) -> np.ndarray:
        if self._center is None:
            mask = np.ones(self.order, dtype=bool)
            for gi in self.elements[self.gen_ids]:
                mask &= np.all(self.elements[:, gi] == gi[self.elements], axis=1)
            self._center = np.flatnonzero(mask)
        return self._center

    def right_multiplication(self, gen_ids: Sequence[int]):
        """`sweep` step: the ids of frontier * g, one row per g in `gen_ids`;
        read off the Cayley table's columns once it is built, else looked up
        by the products' base images, E[x][E[g][base]]."""
        if self._cayley is not None:
            cols = self._cayley.T[gen_ids]
            return lambda frontier: cols[:, frontier]
        E, cols = self.elements, self.elements[gen_ids][:, self.base]
        return lambda frontier: (self._index.locate(E[frontier[:, None], c]) for c in cols)

    def closure(self, seed_ids: Iterable[int]) -> tuple[np.ndarray, list[int]]:
        """Mask of the subgroup generated by the seed ids, and the seeds kept by
        Dimino's rule: a seed inside is dropped, and a kept one s sweeps H*s minus
        H, for the members H so far, under right multiplication by the kept
        seeds (H times an earlier seed is inside H already)."""
        inside, kept = np.zeros(self.order, dtype=bool), []
        inside[0] = True
        for s in seed_ids:
            if inside[s]:
                continue
            kept.append(int(s))
            images = next(iter(self.right_multiplication([s])(np.flatnonzero(inside))))
            for _ in sweep(images[~inside[images]], self.right_multiplication(kept), inside):
                pass
        return inside, kept

    def subgroup_closure(self, seed_ids: Iterable[int]) -> np.ndarray:
        """Sorted ids of the subgroup generated by the given element ids."""
        return np.flatnonzero(self.closure(seed_ids)[0])

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order}, degree={self.degree})"


def close_group(gen_rows: np.ndarray, limit: int = DEFAULT_CLOSURE_LIMIT,
                name: str | None = None, order: int | None = None) -> FiniteGroup:
    """Enumerate the group generated by the (k, degree) permutation rows `gen_rows`,
    k >= 0 (`dimino`, of `order` if known), in the canonical order (`sort_rows`);
    the group keeps the generators dimino kept.  The rows are trusted to be
    permutations: input from outside the program is checked before (`group_from_spec`)."""
    _check_degree(np.shape(gen_rows)[1])  # before the rows are cast to POINT_DTYPE
    rows = np.asarray(gen_rows, dtype=POINT_DTYPE)
    closed = dimino(rows, limit, order)
    mat = closed.elements if order is not None else closed.elements.copy()  # not the buffer
    return FiniteGroup(sort_rows(mat, closed.base), closed.base, rows[closed.kept], name=name)


@dataclass
class ConjClassTable:
    """Conjugacy classes by element id; class numbering follows the minimal
    representative id, so it is reproducible."""

    classes: list[np.ndarray]
    class_of: np.ndarray

    @property
    def sizes(self) -> list[int]:
        return [int(c.size) for c in self.classes]

    def representative(self, class_id: int) -> int:
        return int(self.classes[class_id][0])


def orbits(maps: Iterable[np.ndarray], n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Orbits on 0..n-1 of the group generated by the id permutations `maps`,
    numbered by least point, and each point's orbit.  The maps are merged one
    at a time, so an iterator holds one: each label hooks onto the least label
    of an image of its points, and labels follow labels, until they settle."""
    label = np.arange(n, dtype=np.int32 if n < 2 ** 31 else np.int64)
    for m in maps:
        while not np.array_equal(image := label[m], label):
            hooked = label.copy()
            np.minimum.at(hooked, label, image)
            while not np.array_equal(label := hooked[hooked], hooked):
                hooked = label
        del m, image  # not held while the next map is built
    orbit_of = (np.cumsum(label == np.arange(n)) - 1)[label]  # least points number the orbits
    members = np.argsort(orbit_of, kind="stable")
    return np.split(members, np.cumsum(np.bincount(orbit_of))[:-1]), orbit_of


def sweep(start: Sequence[int], step, seen: np.ndarray):
    """Close the distinct points `start` under injective maps, one level at a
    time.  `step(frontier)` gives each map's images of the frontier points, in
    map order; `seen` is a boolean mask over all points, in which the sweep
    marks `start` and every point it reaches.  Yields, per level and map, the
    map's index, the frontier points it sends to a point not seen before and
    those new points.  An injective map sends no two frontier points to one
    point, and marking a point as soon as it is found keeps a later map from
    finding it again, so every point is yielded at most once."""
    frontier = np.asarray(start, dtype=np.int64)
    seen[frontier] = True
    while frontier.size:
        fresh = [frontier[:0]]
        for k, images in enumerate(step(frontier)):
            new = ~seen[images]
            found = images[new]
            seen[found] = True
            fresh.append(found)
            yield k, frontier[new], found
        frontier = np.concatenate(fresh)


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
    if np.count_nonzero(G.closure(sub)[0]) != np.unique(sub).size:
        raise GroupError("the normal set is not a subgroup")
    coset_of, reps = coset_partition(G, sub)
    reps, gids = np.array(reps, dtype=np.int64), G.gen_ids
    qgens = [coset_of[ids] for ids in G.right_multiplication(gids)(reps)]
    Q = close_group(np.reshape(qgens, (-1, len(reps))), name=name, order=len(reps))
    inv_ids = G.ids_of(np.argsort(G.elements[reps], axis=1))
    trans = np.array([coset_of[ids] for ids in G.right_multiplication(inv_ids)(reps)])
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

def group_from_spec(spec: dict) -> FiniteGroup:
    """Build a group from the JSON spec format:
    {"name": str, "degree": int, "generators": ["(1 2)(3 4)" | [images]]}.
    Each generator is checked to be a permutation before the group closes."""
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
    return close_group(np.reshape(gens, (-1, degree)), name=name)


def load_group_file(path: str) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_spec(json.load(fh))
