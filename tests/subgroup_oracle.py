"""Subgroup closures, conjugation maps, normal closures, the derived series,
solvability and characteristic subgroups, kept as test oracles: a subgroup
closes by Dimino's closure (`closure_oracle.dimino`) of its seeds' rows,
looked up by `ids_of`; conjugates are looked up by their full rows, and a
normal closure conjugates by such id maps of the whole group and re-closes
until it stops growing; the commutators come from scalar products on the
inverse table.  The tests take their subgroups from here and check
`permcore`'s chains, conjugation maps, normality test and quotients against
them; none of these oracles builds a `permcore` chain."""

import numpy as np

from autorbit.permcore import GroupError, conjugacy_classes, validate_automorphism
from closure_oracle import dimino


class InvalidAutomorphism(GroupError):
    pass


def closure(G, seed_ids):
    """<seeds> by a `dimino` closure of their rows: its sorted ids, and the kept seeds."""
    seeds = [int(s) for s in seed_ids]
    closed = dimino(G.elements[seeds])
    return np.sort(G.ids_of(closed.elements)), [seeds[k] for k in closed.kept]


def is_simple(G):
    """The verdict on a searched G that `cli._check_simple` gave before it read chain
    orders: G is nonabelian and each nonidentity class's rows close to all of G by
    Dimino's closure (`dimino`), not by a `permcore` chain."""
    table = conjugacy_classes(G)
    return len(table.least) < G.order and all(
        len(dimino(G.elements[cls]).elements) == G.order for cls in table.classes[1:])


def conjugation_ids(G, c, ids=None):
    """Ids of g x g^-1, g the element with id c, for the x in `ids` (by default
    every id): `ids_of` of the full rows, a block of rows at a time."""
    g = G.elements[c]
    rows = G.elements if ids is None else G.elements[np.asarray(ids)]
    cols, step = np.argsort(g), max(1, (1 << 20) // G.degree)
    return np.concatenate([np.empty(0, dtype=np.int64)] + [
        G.ids_of(np.take(g, rows[lo:lo + step][:, cols])) for lo in range(0, len(rows), step)])


def normal_closure(G, seed_ids, conjugator_ids=None):
    """Closure under the id maps x -> c x c^-1 (c in the conjugator ids, by
    default G's generators) built on the whole group."""
    if conjugator_ids is None:
        conjugator_ids = G.gen_ids
    maps = [conjugation_ids(G, c) for c in conjugator_ids]
    sub = closure(G, seed_ids)[0]
    while True:
        grown = np.unique(np.concatenate([sub] + [m[sub] for m in maps]))
        if grown.size == sub.size:
            return sub
        sub = closure(G, grown)[0]


def derived_series(G):
    """Successive commutator subgroups (sorted id arrays) until they stop
    shrinking: each is the normal closure of its generators' commutators."""
    series, gen_ids, inv = [np.arange(G.order, dtype=np.int64)], G.gen_ids, G.inverse_ids()
    while series[-1].size > 1:
        comms = [G.mul_ids(G.mul_ids(G.mul_ids(a, b), int(inv[a])), int(inv[b]))
                 for a in gen_ids for b in gen_ids]
        nxt = normal_closure(G, comms, gen_ids)
        if nxt.size == series[-1].size:
            break
        series.append(nxt)
        gen_ids = [int(nxt[k]) for k in dimino(G.elements[nxt]).kept]
    return series


def derived_subgroup(G):
    """G' as sorted ids: the second term of the series, or G if G is perfect."""
    series = derived_series(G)
    return series[1] if len(series) > 1 else series[0]


def is_solvable(G) -> bool:
    return derived_series(G)[-1].size == 1


def is_characteristic(G, subgroup_ids, aut_gens) -> bool:
    """True iff every given automorphism (validated) maps the subgroup onto itself."""
    sub = np.asarray(subgroup_ids)
    for phi in aut_gens:
        if not validate_automorphism(G, phi):
            raise InvalidAutomorphism("map does not preserve the multiplication table")
        if set(np.asarray(phi)[sub].tolist()) != set(sub.tolist()):
            return False
    return True
