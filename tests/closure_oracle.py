"""Dimino's closure (Butler 1991), kept as the test oracle of
`permcore.schreier_sims`, which replaced it: the same drop rule, so the same
kept generators, reached by coset enumeration instead of a stabilizer chain.
A generator the closure H of the kept ones already holds is dropped; a kept
generator g grows H to <H, g> by right cosets H*r, handling the candidate
representatives r*s (s kept) of one BFS level together; for the first kept
generator, H = 1 and the cosets are g's powers.  The elements live in a
growing row store keyed by base images, whose base grows when a new row shares
its key with a distinct stored one.

`first_outside` is the sift `permcore._first_outside` made before it read a
chunk only up to its first miss: every row through every level, a missed row
carried along at position 0, and the full products built for all rows before
the first miss.  It is kept unchanged as the oracle of the sift."""

from collections import namedtuple
from math import lcm

import numpy as np

from autorbit.permcore import (_BLOCK_CELLS, DEFAULT_CLOSURE_LIMIT, ClosureLimitExceeded,
                               GeneratorDeficiency, GroupError, _compose, _Level, _RowIndex,
                               cycle_lengths, point_dtype)

Closure = namedtuple("Closure", "elements kept base")  # identity first; kept ascending


class GrowingIndex(_RowIndex):
    """`_RowIndex` over the used part of a buffer that doubles when full;
    `add_new` stores new rows, growing the base first until no two distinct
    rows, given or stored, share a key."""

    def __init__(self, rows: np.ndarray, limit: int, size: int):
        self._buf, self.limit = rows, limit
        super().__init__(rows[:size], (0,))

    def _grow(self, a: np.ndarray, b: np.ndarray) -> list[int]:
        """The base plus the first point off it where the distinct rows a and b
        differ, or if they differ only on it (a hash collision) the first point off it."""
        free = np.setdiff1d(np.arange(len(a)), self.base)
        if not free.size:
            raise GroupError(f"keys collide on the base {self.base}, which holds every point")
        return self.base + [int(free[np.argmax(a[free] != b[free])])]

    def add_new(self, batch: np.ndarray) -> np.ndarray:
        """Store the rows of `batch` that equal no stored row and no earlier
        row of `batch`, in their order; returns the mask of the rows stored.
        A batch row's key is compared with the next one in key order and with
        the stored key it would be merged in next to."""
        size = len(self.rows)
        while True:
            keys = self._fold(batch[:, self.base])
            keys <<= np.uint64(self._p)  # to the stored keys' 64 - p bits
            keys >>= np.uint64(self._p)
            order = np.argsort(keys, kind="stable")  # equal rows: the first one first
            keys = keys[order]
            same = np.flatnonzero(keys[1:] == keys[:-1])
            slots = np.searchsorted(self._keys, keys)
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
            shape = (1 << (need - 1).bit_length(), self._buf.shape[1])
            self._buf = np.empty(shape, self._buf.dtype)
            self._buf[:size] = self.rows  # still a view of the old buffer
        self._buf[size:need] = batch[new]
        self.rows = self._buf[:need]
        self._keys = np.insert(self._keys, slots[keep], keys[keep])
        self._ids = np.insert(self._ids, slots[keep], size + np.cumsum(new)[order[keep]] - 1)
        return new


def element_order(images: np.ndarray) -> int:
    """Exact order of one permutation row: the lcm of its distinct cycle lengths."""
    return lcm(*np.unique(cycle_lengths(images[None, :])).tolist())


def _powers(g: np.ndarray, limit: int) -> np.ndarray:
    """Rows of g^0, ..., g^(o-1), o the order of g."""
    order = element_order(g)
    if order > limit:
        raise ClosureLimitExceeded(f"closure exceeded limit {limit}")
    rows = np.empty((order, g.size), dtype=point_dtype(g.size))
    rows[0], done = np.arange(g.size), 1
    while done < order:  # g^(done+j) = g^j * g^done for j < done
        take = min(done, order - done)
        rows[done:done + take] = np.take(rows[:take], rows[done - 1][g], axis=1)
        done += take
    return rows


def _add_cosets(index: GrowingIndex, H: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Store the right cosets H*c of the candidates c the store does not hold,
    each distinct coset once; returns the candidates that added a coset."""
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
    return np.concatenate(added) if added else np.empty((0, degree), point_dtype(degree))


def dimino(gen_rows: np.ndarray, limit: int = DEFAULT_CLOSURE_LIMIT,
           order: int | None = None) -> Closure:
    """Dimino's closure of the permutation rows `gen_rows`: the elements, the
    indices of the kept generators and a base on which no two elements agree."""
    degree = np.shape(gen_rows)[1]
    gen_rows = np.asarray(gen_rows, dtype=point_dtype(degree))
    if order is not None and order > limit:
        raise ClosureLimitExceeded(f"closure exceeded limit {limit}")
    buf = np.empty((order or 1, degree), point_dtype(degree))  # sized once if the order is known
    buf[0] = np.arange(degree)
    index = GrowingIndex(buf, limit, 1)
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


def first_outside(chain: list[_Level], lo: int, rows: np.ndarray):
    """(i, residue, j) for the first of `rows` (fixing the base points before level
    lo) outside the group of levels lo.., sifted to level j, whose orbit misses
    its image (len(chain): it fixes the base but is not 1); None if none is.
    Rows are sifted on their base images, and compared in full only if they pass."""
    k, d = len(chain), rows.shape[1]
    images = rows[:, [level.point for level in chain[lo:]]].astype(np.int64)
    at, stop = np.zeros_like(images), np.full(len(rows), k)
    for j, level in enumerate(chain[lo:]):
        p = level.pos[images[:, j]]
        stop[(p < 0) & (stop == k)] = lo + j
        at[:, j] = p = np.maximum(p, 0)
        images[:, j + 1:] = level.inv[p[:, None], images[:, j + 1:]]
    i = next(iter(np.flatnonzero(stop < k)), len(rows))
    product = chain[-1].U[at[:i, -1]] if k > lo else np.arange(d)  # u_lo * ... * u_k
    for j in range(k - 2, lo - 1, -1):
        product = _compose(chain[j].U, at[:i, j - lo], product)
    if not (inside := np.all(product == rows[:i], axis=1)).all():
        i = int(np.argmin(inside))
    if i == len(rows):
        return None
    row = rows[i]
    for level, u in zip(chain[lo:stop[i]], at[i]):
        row = level.inv[u][row]
    return int(i), row, int(stop[i])
