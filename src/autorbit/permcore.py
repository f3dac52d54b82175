"""Permutation-group engine: exhaustive enumeration, conjugacy, quotients.

Conventions, fixed globally:

* points are 0-based;
* composition is right-to-left: ``compose(p, q)`` maps ``x`` to ``p(q(x))``;
* groups store their full element list, sorted lexicographically by image
  array, so element ids (and everything derived from them: class numbering,
  coset numbering, orbit output) are reproducible across runs;
* the identity is always element id 0 (it is the lexicographic minimum).

Groups are enumerated by one Dimino closure (``dimino``): a generator the
closure H already holds is dropped, and each kept generator adds the right
cosets H*r, one BFS level of coset representatives at a time.  Elements are
keyed by their images of a base, a point set on which no two elements agree;
the base grows whenever two distinct rows share a key, and every key hit is
confirmed on the full row, so a non-member is never mistaken for a member.
A group's ``generators`` are the kept, irredundant generators.

1-cycles of a permutation are kept in its cycle decomposition; cycle strings
at the I/O boundary use 1-based points, e.g. ``"(1 2)(3 4 5)"``.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from dataclasses import dataclass
from math import lcm
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


class DegreeMismatch(GroupError):
    pass


class ClosureLimitExceeded(ResourceLimit):
    pass


class TooLarge(ResourceLimit):
    """An input is larger than a fixed guard of the routine it was given to."""


class NotNormal(GroupError):
    pass


class InvalidAutomorphism(GroupError):
    pass


def _check_degree(degree: int):
    if degree > MAX_DEGREE:
        raise TooLarge(f"degree {degree} exceeds the degree guard MAX_DEGREE = {MAX_DEGREE}")


class Permutation:
    """Immutable bijection on {0, ..., degree-1}, stored as an image array."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int] | np.ndarray):
        _check_degree(len(images))
        arr = np.asarray(images, dtype=POINT_DTYPE)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("images must be a non-empty 1-d sequence")
        if not np.array_equal(np.sort(arr), np.arange(arr.size)):
            raise ValueError("images is not a bijection on {0,...,degree-1}")
        arr.setflags(write=False)
        self.images = arr
        self._hash = hash(arr.tobytes())

    @property
    def degree(self) -> int:
        return int(self.images.size)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(np.arange(degree, dtype=POINT_DTYPE))

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.images, other.images)

    def __hash__(self) -> int:
        return self._hash

    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self.images))

    def order(self) -> int:
        return int(np.lcm.reduce([len(c) for c in cycle_decompose(self).cycles]))

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(self.degree)))

    def __repr__(self) -> str:
        return f"Permutation({cycle_string(self)!r})"


@dataclass(frozen=True)
class CycleSet:
    """Canonical disjoint-cycle form: fixed points kept as 1-cycles,
    each cycle rotated to start at its minimal point, cycles sorted by it."""

    degree: int
    cycles: tuple[tuple[int, ...], ...]

    def to_permutation(self) -> Permutation:
        images = np.arange(self.degree, dtype=POINT_DTYPE)
        for cyc in self.cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return Permutation(images)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Right-to-left composition: (p*q)(x) = p(q(x))."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degree {p.degree} != {q.degree}")
    return Permutation(p.images[q.images])


def cycle_decompose(p: Permutation) -> CycleSet:
    seen = np.zeros(p.degree, dtype=bool)
    cycles = []
    for start in range(p.degree):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = int(p.images[start])
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = int(p.images[x])
        cycles.append(tuple(cyc))
    return CycleSet(p.degree, tuple(cycles))


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Multiset of cycle lengths (1-cycles included), sorted descending."""
    return tuple(sorted((len(c) for c in cycle_decompose(p).cycles), reverse=True))


def cycle_string(p: Permutation) -> str:
    """1-based cycle string, 1-cycles omitted; identity prints as '()'."""
    parts = [
        "(" + " ".join(str(x + 1) for x in cyc) + ")"
        for cyc in cycle_decompose(p).cycles
        if len(cyc) > 1
    ]
    return "".join(parts) if parts else "()"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse a 1-based cycle string like "(1 2)(3 4 5)" into a Permutation."""
    images = np.arange(degree, dtype=POINT_DTYPE)
    body = text.strip()
    if body in ("", "()"):
        return Permutation(images)
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
    return Permutation(images)


def _encode_rows(mat: np.ndarray) -> np.ndarray:
    """Rows as fixed-width byte strings whose byte order matches
    lexicographic order on the integer entries (big-endian cast)."""
    be = np.ascontiguousarray(mat.astype(">u2"))
    return be.view(f"S{2 * mat.shape[1]}").ravel()


def _separate(rows: np.ndarray, base: Sequence[int]):
    """`base` extended until rows agreeing on it are equal rows; also the rows'
    keys (`_encode_rows` of the base columns), their stable sort order and the
    sorted positions whose key repeats the one before."""
    base = list(base)
    while True:
        keys = _encode_rows(rows[:, base])
        order = np.argsort(keys, kind="stable")
        same = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
        a, b = rows[order[same]], rows[order[same + 1]]
        clash = np.flatnonzero(np.any(a != b, axis=1))
        if not clash.size:
            return base, keys, order, same
        base.append(int(np.flatnonzero(a[clash[0]] != b[clash[0]])[0]))


class _RowIndex:
    """Growing store of distinct permutation rows, identity first, looked up
    by their images of a base.  Two stored rows that share a key extend the
    base and rekey the store; a key hit counts only if the full row matches."""

    def __init__(self, degree: int, limit: int):
        self._buf = np.arange(degree, dtype=POINT_DTYPE)[None, :]  # grows by doubling
        self.size = 1
        self.limit = limit
        self.base = [0]
        self.slot = {self.keys(self._buf[:1])[0]: 0}

    def keys(self, rows: np.ndarray) -> list[bytes]:
        return _encode_rows(rows[:, self.base]).tolist()

    def _rekey(self, base: list[int]):
        """Key the store on `base`, extended as far as the stored rows need."""
        self.base = _separate(self._buf[:self.size], base)[0]
        self.slot = dict(zip(self.keys(self._buf[:self.size]), range(self.size)))

    def _extend_base(self, a: np.ndarray, b: np.ndarray):
        """a and b are distinct rows agreeing on the base."""
        self._rekey(self.base + [int(np.flatnonzero(a != b)[0])])

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Store position of each row, -1 where the row is not stored."""
        while True:
            pos = np.array([self.slot.get(k, -1) for k in self.keys(rows)], dtype=np.int64)
            hit = np.flatnonzero(pos >= 0)
            clash = hit[np.any(self._buf[pos[hit]] != rows[hit], axis=1)]
            if not clash.size:
                return pos
            self._extend_base(rows[clash[0]], self._buf[pos[clash[0]]])

    def first_occurrences(self, rows: np.ndarray) -> np.ndarray:
        """Mask of the rows that equal no earlier row; extends the base until
        it tells the distinct rows apart."""
        base, _, order, same = _separate(rows, self.base)
        if base != self.base:
            self._rekey(base)
        first = np.ones(len(rows), dtype=bool)
        first[order[same + 1]] = False
        return first

    def add(self, rows: np.ndarray):
        """Store rows not in the store whose keys differ from each other."""
        need = self.size + len(rows)
        if need > self.limit:
            raise ClosureLimitExceeded(f"closure exceeded limit {self.limit}")
        keys = self.keys(rows)
        while not self.slot.keys().isdisjoint(keys):
            i = next(i for i, k in enumerate(keys) if k in self.slot)
            self._extend_base(rows[i], self._buf[self.slot[keys[i]]])
            keys = self.keys(rows)
        if need > len(self._buf):  # capacity a power of two; rows past size are unread
            self._buf = np.resize(self._buf, (1 << (need - 1).bit_length(), self._buf.shape[1]))
        self._buf[self.size:need] = rows
        self.slot.update(zip(keys, range(self.size, need)))
        self.size = need


def _powers(g: np.ndarray, limit: int) -> np.ndarray:
    """Rows of g^0, ..., g^(o-1), o the order of g."""
    order = _order_of_images(g)
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
    each distinct coset once; returns the candidates that added a coset."""
    m, degree = H.shape
    step = max(1, _BLOCK_CELLS // (m * degree))
    added = []
    for lo in range(0, len(cands), step):
        reps = cands[lo:lo + step]
        reps = reps[index.find(reps) < 0]
        if not reps.size:
            continue
        cosets = np.take(H, reps, axis=1).transpose(1, 0, 2).reshape(-1, degree)  # H[0] = 1
        new = index.first_occurrences(cosets)[::m]
        index.add(cosets.reshape(len(reps), m, degree)[new].reshape(-1, degree))
        added.append(reps[new])
    return np.concatenate(added) if added else np.empty((0, degree), POINT_DTYPE)


Closure = namedtuple("Closure", "elements kept base")  # identity first; kept ascending


def dimino(gen_rows: np.ndarray, limit: int = DEFAULT_CLOSURE_LIMIT) -> Closure:
    """Dimino's closure of the permutation rows `gen_rows` (Butler 1991): the
    elements, the indices of the kept generators and a base on which no two
    elements agree.  A generator the closure H of the kept ones already holds
    is dropped; a kept generator g grows H to <H, g> by right cosets H*r,
    handling the candidate representatives r*s (s kept) of one BFS level
    together.  For the first kept generator H = 1: the cosets are g's powers."""
    gen_rows = np.asarray(gen_rows, dtype=POINT_DTYPE)
    degree = gen_rows.shape[1]
    index = _RowIndex(degree, limit)
    kept: list[int] = []
    start = 0
    while True:
        missing = np.flatnonzero(index.find(gen_rows[start:]) < 0)
        if not missing.size:
            return Closure(index._buf[:index.size], kept, index.base)
        start += int(missing[0])
        kept.append(start)
        H, kept_rows, g = index._buf[:index.size], gen_rows[kept], gen_rows[start]
        start += 1
        if len(kept) == 1:  # H = 1: <g> is g's powers, stored once their keys differ
            powers = _powers(g, limit)[1:]
            index.add(powers[index.first_occurrences(powers)])
            continue
        cands = g[None, :]
        while cands.size:
            reps = _add_cosets(index, H, cands)
            cands = np.take(reps, kept_rows, axis=1).reshape(-1, degree)


class FiniteGroup:
    """Fully enumerated permutation group with canonical element ids."""

    def __init__(self, degree: int, generators: list[Permutation], elements: np.ndarray,
                 name: str | None = None, base: Sequence[int] | None = None):
        self.degree = degree
        self.generators = generators
        self.elements = elements  # (order, degree), lexicographically sorted
        self.name = name
        self.base, keys, self._key_ids, _ = _separate(elements, base or [0])
        self._sorted_keys = keys[self._key_ids]
        self._inv_ids: np.ndarray | None = None
        self._classes: ConjClassTable | None = None
        self._cayley: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._center: np.ndarray | None = None
        if self.id_of(Permutation.identity(degree)) != 0:
            raise GroupError("identity is not element id 0; enumeration broken")

    # -- basic queries ------------------------------------------------

    @property
    def order(self) -> int:
        return int(self.elements.shape[0])

    def perm(self, i: int) -> Permutation:
        return Permutation(self.elements[i])

    def ids_of(self, mat: np.ndarray) -> np.ndarray:
        """Vectorized element-id lookup by base images, each hit confirmed on
        the full row; raises if a row is not in the group."""
        mat = np.asarray(mat, dtype=POINT_DTYPE)
        if mat.ndim != 2 or mat.shape[1] != self.degree:
            raise GroupError("permutation not in group")
        pos = np.searchsorted(self._sorted_keys, _encode_rows(mat[:, self.base]))
        ids = self._key_ids[np.minimum(pos, self.order - 1)]
        if not np.array_equal(self.elements[ids], mat):
            raise GroupError("permutation not in group")
        return ids

    def id_of(self, p: Permutation | np.ndarray) -> int:
        images = p.images if isinstance(p, Permutation) else np.asarray(p)
        return int(self.ids_of(images[None, :])[0])

    def contains(self, p: Permutation) -> bool:
        try:
            self.id_of(p)
            return True
        except GroupError:
            return False

    def generator_ids(self) -> list[int]:
        return [self.id_of(g) for g in self.generators]

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
            n, E = self.order, self.elements
            table = np.empty((n, n), dtype=np.int32)
            for rows in self._row_blocks(n * self.degree, n):
                block = np.take(E[rows], E, axis=1)  # block[i, j] = E[i] * E[j]
                table[rows] = self.ids_of(block.reshape(-1, self.degree)).reshape(-1, n)
            self._cayley = table
        return self._cayley

    def conjugation_ids(self, g: Permutation, ids: np.ndarray | None = None) -> np.ndarray:
        """Ids of g x g^-1 for the x in `ids`; by default for every x, in id order."""
        gi, ginv = g.images, g.inverse().images
        E = self.elements if ids is None else self.elements[np.asarray(ids)]
        out = np.empty(len(E), dtype=np.int64)
        for rows in self._row_blocks(self.degree, len(E)):
            out[rows] = self.ids_of(gi[np.take(E[rows], ginv, axis=1)])
        return out

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            self._orders = np.array([_order_of_images(row) for row in self.elements])
        return self._orders

    # -- structure -----------------------------------------------------

    def center_ids(self) -> np.ndarray:
        if self._center is None:
            mask = np.ones(self.order, dtype=bool)
            for g in self.generators:
                gi = g.images
                mask &= np.all(self.elements[:, gi] == gi[self.elements], axis=1)
            self._center = np.flatnonzero(mask)
        return self._center

    def subgroup_closure(self, seed_ids: Iterable[int]) -> np.ndarray:
        """Ids of the subgroup generated by the given element ids."""
        seeds = np.array([int(s) for s in seed_ids], dtype=np.int64)
        return np.sort(self.ids_of(dimino(self.elements[seeds]).elements))

    def normal_closure(self, seed_ids: Iterable[int],
                       conjugator_ids: Sequence[int] | None = None) -> np.ndarray:
        """Smallest subgroup containing the seeds and invariant under
        conjugation by the given elements (default: the group generators)."""
        if conjugator_ids is None:
            conjugator_ids = self.generator_ids()
        sub = self.subgroup_closure(seed_ids)
        while True:
            grown = np.unique(np.concatenate(
                [sub] + [self.conjugation_ids(self.perm(int(c)), sub) for c in conjugator_ids]))
            if grown.size == sub.size:
                return sub
            sub = self.subgroup_closure(grown)

    def derived_subgroup_ids(self) -> np.ndarray:
        return _commutator_closure(self, self.generator_ids())

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order}, degree={self.degree})"


def _order_of_images(images: np.ndarray) -> int:
    seen = np.zeros(images.size, dtype=bool)
    result = 1
    for start in range(images.size):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = int(images[x])
            length += 1
        result = lcm(result, length)
    return result


def close_group(generators: Sequence[Permutation], limit: int = DEFAULT_CLOSURE_LIMIT,
                degree: int | None = None, name: str | None = None) -> FiniteGroup:
    """Enumerate the group generated by `generators` (`dimino`), in the
    canonical order; the group keeps the generators the closure did not drop."""
    if generators:
        degrees = {g.degree for g in generators}
        if len(degrees) != 1:
            raise DegreeMismatch(f"mixed degrees {sorted(degrees)}")
        degree = degrees.pop()
    elif degree is None:
        raise ValueError("need a degree for the empty generating set")
    rows = np.array([g.images for g in generators], dtype=POINT_DTYPE).reshape(-1, degree)
    closed = dimino(rows, limit)
    mat = closed.elements[np.argsort(_encode_rows(closed.elements))]
    return FiniteGroup(degree, [generators[k] for k in closed.kept], mat, name=name,
                       base=closed.base)


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


def orbits(maps: Sequence[np.ndarray], n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Orbits on 0..n-1 of the group generated by the id permutations `maps`,
    numbered by least point, and each point's orbit.  Min-label propagation:
    each point takes the least label along the maps, then its label's label,
    until no label moves."""
    label = np.arange(n)
    while True:
        new = label
        for m in maps:
            new = np.minimum(new, new[m])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    _, orbit_of = np.unique(label, return_inverse=True)
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
        maps = [G.conjugation_ids(g) for g in G.generators]
        G._classes = ConjClassTable(*orbits(maps, G.order))
    return G._classes


def mcs(G: FiniteGroup) -> int:
    """Minimum element-centralizer size = |G| / (largest conjugacy class)."""
    table = conjugacy_classes(G)
    return G.order // max(table.sizes)


def _commutator_closure(G: FiniteGroup, gen_ids: Sequence[int]) -> np.ndarray:
    """Derived subgroup of <gen_ids>: the normal closure, under conjugation by
    the given ids, of their commutators a b a^-1 b^-1."""
    E = G.elements
    comms = [E[a][E[b][np.argsort(E[a])[np.argsort(E[b])]]] for a in gen_ids for b in gen_ids]
    return G.normal_closure(G.ids_of(np.reshape(comms, (-1, G.degree))), conjugator_ids=gen_ids)


def derived_series(G: FiniteGroup) -> list[np.ndarray]:
    """Successive commutator subgroups (as id sets) until stabilization."""
    series, gen_ids = [np.arange(G.order, dtype=np.int64)], G.generator_ids()
    while series[-1].size > 1:
        nxt = _commutator_closure(G, gen_ids)
        if nxt.size == series[-1].size:
            break
        series.append(nxt)
        gen_ids = [int(nxt[k]) for k in dimino(G.elements[nxt]).kept]
    return series


def is_solvable(G: FiniteGroup) -> bool:
    return derived_series(G)[-1].size == 1


def is_normal(G: FiniteGroup, subgroup_ids: np.ndarray) -> bool:
    sub_ids = np.sort(np.asarray(subgroup_ids))
    return all(np.array_equal(np.sort(G.conjugation_ids(g, sub_ids)), sub_ids)
               for g in G.generators)


def coset_partition(G: FiniteGroup, subgroup_ids: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Right-coset labels: coset_of[x] for cosets N*g, numbered by minimal
    member id. Requires nothing beyond subgroup closure."""
    n = G.order
    coset_of = np.full(n, -1, dtype=np.int64)
    reps: list[int] = []
    sub_rows = G.elements[np.asarray(subgroup_ids)]
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        members = G.ids_of(sub_rows[:, G.elements[x]])  # rows n*x for n in N
        coset_of[members] = len(reps)
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
    coset_of, reps = coset_partition(G, sub)
    R = G.elements[reps]
    qgens = [Permutation(coset_of[G.ids_of(R[:, g.images])]) for g in G.generators]
    Q = close_group(qgens, degree=len(reps), name=name)
    if Q.order * sub.size != G.order:
        raise GroupError("quotient order mismatch; subgroup not closed?")
    trans = np.array([coset_of[G.ids_of(R[:, r_inv])] for r_inv in np.argsort(R, axis=1)])
    pi = Q.ids_of(trans)[coset_of]
    gids = G.generator_ids()
    if any(pi[G.mul_ids(g, x)] != Q.mul_ids(int(pi[g]), int(pi[x])) for g in gids for x in gids):
        raise GroupError("quotient projection is not a homomorphism")
    return Quotient(Q, pi)


def validate_automorphism(G: FiniteGroup, phi: np.ndarray) -> bool:
    """phi: id permutation of G. Checking phi(g*x) = phi(g)*phi(x) for all
    generators g and all x suffices for phi to be an automorphism."""
    phi = np.asarray(phi)
    if not np.array_equal(np.sort(phi), np.arange(G.order)):
        return False
    if phi[0] != 0:
        return False
    E = G.elements
    for g in G.generator_ids():
        lhs = phi[G.ids_of(E[g][E])]
        rhs = G.ids_of(E[phi[g]][E[phi]])
        if not np.array_equal(lhs, rhs):
            return False
    return True


def is_characteristic(G: FiniteGroup, subgroup_ids: np.ndarray,
                      aut_gens: Sequence[np.ndarray]) -> bool:
    """True iff every given automorphism (validated) maps the subgroup onto
    itself."""
    sub = set(int(x) for x in np.asarray(subgroup_ids))
    for phi in aut_gens:
        if not validate_automorphism(G, phi):
            raise InvalidAutomorphism("map does not preserve the multiplication table")
        if set(np.asarray(phi)[np.asarray(subgroup_ids)].tolist()) != sub:
            return False
    return True


# -- group spec files ----------------------------------------------------

def group_from_spec(spec: dict) -> FiniteGroup:
    """Build a group from the JSON spec format:
    {"name": str, "degree": int, "generators": ["(1 2)(3 4)" | [images]]}."""
    degree = int(spec["degree"])
    _check_degree(degree)
    gens = []
    for item in spec.get("generators", []):
        if isinstance(item, str):
            gens.append(parse_cycles(item, degree))
        else:
            gens.append(Permutation(item))
    return close_group(gens, degree=degree, name=spec.get("name"))


def load_group_file(path: str) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_spec(json.load(fh))
