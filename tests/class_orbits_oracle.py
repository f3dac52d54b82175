"""The Aut(G)-orbits of an almost simple G read off the classes of a closed
Aut(S), kept as a test oracle of `maol --group` (`cli.maol_report`), which
fuses G's own classes by Aut(S)'s generators (`stypes.fuse`) and closes no
Aut(S); and the closed Aut(S) of a built G with G's ids in it, which the
oracles of `h` and `maol --group` read."""

import numpy as np

from autorbit.catalog import AlmostSimple
from autorbit.permcore import FiniteGroup, NotNormal, orbits
from subgroup_oracle import conjugation_ids


def closed_with_ids(built: AlmostSimple) -> tuple[FiniteGroup, np.ndarray]:
    """Aut(S) closed (`AlmostSimple.closed`) and the built G's sorted ids in it,
    read off G's lifted elements."""
    A = built.closed()
    return A, np.sort(A.ids_of(built.lift(built.group.elements)))


def class_orbits(A: FiniteGroup, ids: np.ndarray) -> list[int]:
    """Orbit sizes, largest first, of the normal subgroup G of A with these
    sorted ids under conjugation by A: the classes of A inside G.  For
    S <= G <= A = Aut(S), S simple, Aut(G) is N_A(G) = A acting by
    conjugation, so these are the Aut(G)-orbits on G."""
    images = [conjugation_ids(A, c, ids) for c in A.gen_ids]
    if not all(np.array_equal(np.sort(m), ids) for m in images):
        raise NotNormal("the subgroup is not normal in Aut(S)")
    maps = (np.searchsorted(ids, m) for m in images)
    return sorted((part.size for part in orbits(maps, ids.size)[0]), reverse=True)
