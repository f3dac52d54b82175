"""Independent cross-checks for h(Alt_6) = 2/3 and maol(extraspecial 27) = 8/9,
the two values where the reference column of `verify paper-table` disagrees
with direct computation: the same invariants are recomputed from a second,
structurally different construction and must agree with the first."""

from fractions import Fraction

import numpy as np

from autorbit import catalog, permcore as pc, stypes as st
from autorbit.autgrp import automorphism_group, inner_automorphism_ids, maol
from autorbit.catalog import projective_perms, projective_points, sl_generators, _diag
from autorbit.fields import make_field
from autorbit.permcore import close_group
from stypes_oracle import h_value_direct
from subgroup_oracle import derived_subgroup


def build_pgammal_2_9():
    """PGammaL_2(9) on the 10 points of the projective line over F_9:
    PGL_2(9) generators plus the Frobenius field automorphism."""
    F = make_field(3, 2)
    pts = projective_points(F, 2)
    assert len(pts) == 10
    mats = np.concatenate([sl_generators(F, 2), _diag(2, F.primitive_element())])
    gens = projective_perms(F, pts, mats)
    frob = projective_perms(F, pts, np.eye(2, dtype=np.int64)[None], F.frobenius)
    return close_group(np.vstack([gens, frob]), name="pgammal(2,9)")


def test_aut_alt6_against_geometric_model(alt6, alt6_aut):
    """Aut(Alt_6) from the Cayley-table search vs PGammaL_2(9) built on 10
    points: same order, same class-size multiset, same MCS, same h over the
    socle, computed by both the rho route and direct coset counting."""
    geo = build_pgammal_2_9()
    assert geo.order == 1440

    searched = alt6_aut
    assert searched.order == 1440

    sizes_geo = sorted(pc.conjugacy_classes(geo).sizes)
    sizes_search = sorted(pc.conjugacy_classes(searched).sizes)
    assert sizes_geo == sizes_search
    assert pc.mcs(geo) == pc.mcs(searched) == 6

    socle_geo = derived_subgroup(geo)  # PSL_2(9) = Alt_6
    assert socle_geo.size == 360
    h_geo = st.h_value(geo, socle_geo)
    h_geo_direct = h_value_direct(geo, socle_geo)
    socle_search = inner_automorphism_ids(alt6, alt6_aut)
    h_search = st.h_value(searched, socle_search)
    assert h_geo == h_geo_direct == h_search == Fraction(2, 3)
    # 3/4 would need 270 elements of one class inside one coset; with
    # MCS = 6 the largest class has 1440/6 = 240 elements and abelian Out
    # confines every class to a single coset
    assert max(sizes_geo) == 240


def test_extraspecial27_aut_by_unpruned_search():
    """Aut of the order-27 exponent-3 group, recomputed without fingerprint
    pruning: try all 26 x 26 images of the two generators and keep the maps
    that extend to automorphisms.  Must agree with the pruned search."""
    es = catalog.extraspecial_p3_exponent_p(3)
    T = es.cayley()
    gen_ids = es.gen_ids.tolist()
    assert len(gen_ids) == 2
    g1, g2 = gen_ids

    # BFS words over the two generators
    order, parent, via = [0], {0: -1}, {0: -1}
    seen = {0}
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for k, g in enumerate((g1, g2)):
            y = int(T[x, g])
            if y not in seen:
                seen.add(y)
                parent[y], via[y] = x, k
                order.append(y)
    assert len(order) == 27

    found = []
    ids = np.arange(27)
    for c1 in range(1, 27):
        for c2 in range(1, 27):
            phi = np.zeros(27, dtype=np.int64)
            phi[g1], phi[g2] = c1, c2
            for e in order[1:]:
                if e not in (g1, g2):
                    phi[e] = T[phi[parent[e]], phi[(g1, g2)[via[e]]]]
            if not np.array_equal(np.sort(phi), ids):
                continue
            if all(np.array_equal(phi[T[g, :]], T[phi[g], phi[:]][ids])
                   for g in (g1, g2)):
                found.append(phi)
    assert len(found) == 432  # the classical |Aut| of the Heisenberg group

    orbits = pc.orbits([f.astype(np.uint16) for f in found], 27)[0]
    assert sorted(o.size for o in orbits) == [1, 2, 24]

    pruned = automorphism_group(es)
    assert pruned.order == 432
    assert maol(es, pruned).orbit_sizes == [24, 2, 1]
    # no orbit of size 18 exists; the 2/3 proportion belongs to the
    # exponent-9 group of order 27, computed next


def test_exponent9_group_of_order_27_has_maol_two_thirds():
    """The other nonabelian group of order 27 (exponent 9), via its left
    regular action: orbit sizes 1,2,3,3,18, so maol = 18/27 = 2/3."""
    els = [(i, j) for j in range(3) for i in range(9)]
    idx = {e: k for k, e in enumerate(els)}

    def mul(e1, e2):
        i, j = e1
        k, l = e2
        return ((i + k * pow(4, j, 9)) % 9, (j + l) % 3)

    a, b = (1, 0), (0, 1)
    La = [idx[mul(a, e)] for e in els]
    Lb = [idx[mul(b, e)] for e in els]
    M = close_group([La, Lb], name="order27exp9")
    assert M.order == 27
    assert sorted(set(int(o) for o in M.element_orders())) == [1, 3, 9]
    A = automorphism_group(M)
    assert A.order == 54
    rep = maol(M, A)
    assert rep.orbit_sizes == [18, 3, 3, 2, 1]
    assert rep.maol == Fraction(2, 3)
