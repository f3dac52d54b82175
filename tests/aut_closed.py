"""The searched Aut(G), closed.  `automorphism_group` gives Aut(G)'s kept generator
rows and its order and enumerates no element; the tests that read Aut(G)'s elements,
ids, classes or subgroups close it here, as `aut --out` does: one `close_group` of
those rows at that order."""

from autorbit.autgrp import DEFAULT_NODE_BUDGET, automorphism_group
from autorbit.permcore import FiniteGroup, close_group


def closed_aut(G: FiniteGroup, budget: int = DEFAULT_NODE_BUDGET) -> FiniteGroup:
    """Aut(G) from the search, closed on G's element ids."""
    A = automorphism_group(G, budget)
    return close_group(A.rows, order=A.order)
