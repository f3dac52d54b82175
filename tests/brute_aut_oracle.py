"""Aut(G) by brute force, sharing nothing with the Aut search: no fingerprints, no
generating set of its own, no extend-and-filter step and no Cayley table of G's.
Every tuple of images of `G.gen_ids` with the generators' element orders is tried;
its map is built along breadth-first words in the generators and kept if it is a
bijection that respects the product with every generator.  The kept maps are all
of Aut(G), so |Aut(G)| is their number and the orbit of x is column x's values."""

from itertools import product

import numpy as np


def multiplication_table(G) -> np.ndarray:
    """T[x, y], the id of element x followed by element y, looked up by each
    product row's number in base `degree` among the sorted numbers of G's rows."""
    E = G.elements.astype(np.int64)
    weights = G.degree ** np.arange(G.degree, dtype=np.int64)
    keys = E @ weights
    order = np.argsort(keys)
    T = np.empty((G.order, G.order), dtype=np.int64)
    for x in range(G.order):
        T[x] = order[np.searchsorted(keys[order], E[:, E[x]] @ weights)]
    return T


def element_orders(T: np.ndarray) -> np.ndarray:
    """Each element's order: the least k >= 1 with x^k the identity, id 0."""
    n = T.shape[0]
    orders, power, k = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), 0
    while not orders.all():
        power, k = T[power, np.arange(n)], k + 1
        orders[(power == 0) & (orders == 0)] = k
    return orders


def words(T: np.ndarray, gens: list[int]) -> list[tuple[int, int, int]]:
    """(x, parent, k) for every element x but the identity, in breadth-first order
    from the identity: x = parent * gens[k]."""
    seen, queue, out = {0}, [0], []
    for parent in queue:
        for k, g in enumerate(gens):
            x = int(T[parent, g])
            if x not in seen:
                seen.add(x)
                queue.append(x)
                out.append((x, parent, k))
    return out


def brute_automorphisms(G) -> np.ndarray:
    """Every automorphism of G as a row of the images of its ids, tried 4,096 tuples at a time."""
    T, gens = multiplication_table(G), [int(g) for g in G.gen_ids]
    orders = element_orders(T)
    steps = words(T, gens)
    if len(steps) != G.order - 1:
        raise ValueError("G.gen_ids do not generate G")
    tuples = list(product(*[np.flatnonzero(orders == orders[g]) for g in gens]))
    grid = np.array(tuples, dtype=np.int64).reshape(len(tuples), len(gens))
    kept = [np.empty((0, G.order), dtype=np.int64)]
    for lo in range(0, len(grid), 4096):
        images = grid[lo:lo + 4096]
        phi = np.zeros((len(images), G.order), dtype=np.int64)
        for x, parent, k in steps:
            phi[:, x] = T[phi[:, parent], images[:, k]]
        ok = (np.sort(phi, axis=1) == np.arange(G.order)).all(axis=1)
        for g in gens:  # phi(x g) = phi(x) phi(g) for every x
            ok &= (phi[:, T[:, g]] == T[phi, phi[:, [g]]]).all(axis=1)
        kept.append(phi[ok])
    return np.concatenate(kept)


def brute_aut_report(G) -> tuple[int, list[int]]:
    """|Aut(G)| and the Aut(G)-orbit sizes on G, largest first."""
    auts = brute_automorphisms(G)
    least = auts.min(axis=0)  # the least point of each element's orbit
    return len(auts), sorted(np.bincount(least)[np.unique(least)].tolist(), reverse=True)
