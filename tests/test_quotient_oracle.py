"""`permcore.quotient_group` and `FiniteGroup.normal_closure` against the
routines they replaced, kept here as oracles: the quotient generators found
by one scalar lookup per representative and generator, the projection built
from the whole group's inverse table and m^2 scalar products, and the normal
closure that conjugates by id maps of the whole group.  Both sides must give
the same quotient elements, quotient generators and projection, and the same
normal closures and derived series."""

import numpy as np
import pytest

from autorbit import catalog
from autorbit import permcore as pc
from autorbit import stypes as st
from autorbit.autgrp import automorphism_group, inner_automorphism_ids
from autorbit.permcore import POINT_DTYPE, GroupError, Permutation


def oracle_quotient(G, N):
    """(Q, pi): Q on the right cosets N*r, generated by the generators' right
    translations; pi sends N*r_k to the translation j -> N*r_j*r_k^-1."""
    coset_of, reps = pc.coset_partition(G, N)
    qgens = [Permutation(np.array([int(coset_of[G.id_of(G.elements[r][g.images])])
                                   for r in reps], dtype=POINT_DTYPE))
             for g in G.generators]
    Q = pc.close_group(qgens, degree=len(reps))
    inv = G.inverse_ids()
    coset_to_qid = np.empty(len(reps), dtype=np.int64)
    for k, rep in enumerate(reps):
        rk_inv = int(inv[rep])
        images = [int(coset_of[G.mul_ids(int(r), rk_inv)]) for r in reps]
        coset_to_qid[k] = Q.id_of(np.array(images))
    pi = coset_to_qid[coset_of]
    for g in G.generator_ids():
        for x in G.generator_ids():
            if pi[G.mul_ids(g, x)] != Q.mul_ids(int(pi[g]), int(pi[x])):
                raise GroupError("quotient projection is not a homomorphism")
    return Q, pi


def oracle_normal_closure(G, seed_ids, conjugator_ids=None):
    """Closure under id maps x -> c x c^-1 built on the whole group."""
    if conjugator_ids is None:
        conjugator_ids = G.generator_ids()
    maps = []
    for c in conjugator_ids:
        ci, cinv = G.elements[c], np.argsort(G.elements[c])
        maps.append(G.ids_of(ci[G.elements[:, cinv]]))
    sub = G.subgroup_closure(seed_ids)
    while True:
        grown = np.unique(np.concatenate([sub] + [m[sub] for m in maps]))
        if grown.size == sub.size:
            return sub
        sub = G.subgroup_closure(grown)


def oracle_derived_series(G):
    """Commutators by scalar products on the inverse table, then the
    whole-group-map normal closure, level by level."""
    series, gen_ids, inv = [np.arange(G.order, dtype=np.int64)], G.generator_ids(), G.inverse_ids()
    while series[-1].size > 1:
        comms = [G.mul_ids(G.mul_ids(G.mul_ids(a, b), int(inv[a])), int(inv[b]))
                 for a in gen_ids for b in gen_ids]
        nxt = oracle_normal_closure(G, comms, gen_ids)
        if nxt.size == series[-1].size:
            break
        series.append(nxt)
        gen_ids = [int(nxt[k]) for k in pc.dimino(G.elements[nxt]).kept]
    return series


def assert_same_quotient(Q, pi, G, N):
    ref_Q, ref_pi = oracle_quotient(G, N)
    assert np.array_equal(Q.elements, ref_Q.elements)
    assert [g.images.tolist() for g in Q.generators] == \
        [g.images.tolist() for g in ref_Q.generators]
    assert np.array_equal(pi, ref_pi)


@pytest.mark.parametrize("name", ["alt5", "alt6", "psl(2,8)", "sym6"])
def test_out_quotient_matches_oracle(name):
    A = automorphism_group(catalog.resolve(name))
    socle = inner_automorphism_ids(A)
    out = st.out_quotient(A.group, socle)
    assert out.quotient.name == "out"
    assert_same_quotient(out.quotient, out.pi, A.group, socle)


def test_coarse_quotient_matches_oracle(alt5_aut):
    socle = inner_automorphism_ids(alt5_aut)
    coarse = st.coarse_quotient(alt5_aut.group, socle, socle_ids=socle)
    assert_same_quotient(coarse.quotient, coarse.pi, alt5_aut.group, socle)


SUBGROUPS = {
    "derived": lambda G: G.derived_subgroup_ids(),
    "second-derived": lambda G: pc.derived_series(G)[2],
    "center": lambda G: G.center_ids(),
    "squares": lambda G: G.subgroup_closure([G.mul_ids(i, i) for i in range(G.order)]),
    "trivial": lambda G: np.array([0]),
}


@pytest.mark.parametrize("name,kind", [
    ("sym3", "derived"), ("sym4", "derived"), ("sym4", "second-derived"),
    ("alt4", "derived"), ("extraspecial(3)", "center"), ("cyclic12", "squares"),
    ("sym4", "trivial"), ("extraspecial(3)", "trivial"),
])
def test_quotient_group_matches_oracle(name, kind):
    G = catalog.resolve(name)
    N = SUBGROUPS[kind](G)
    Q, pi = pc.quotient_group(G, N, name="q")
    assert Q.name == "q" and Q.order * N.size == G.order
    assert_same_quotient(Q, pi, G, N)


@pytest.mark.parametrize("name", ["sym5", "alt6"])
def test_normal_closures_of_classes_match_oracle(name):
    G = catalog.resolve(name)
    for cls in pc.conjugacy_classes(G).classes:
        assert np.array_equal(G.normal_closure([cls[0]]), oracle_normal_closure(G, [cls[0]]))


def test_conjugation_of_given_ids_is_the_whole_map_restricted():
    G = catalog.resolve("pgl(2,7)")
    ids = np.array([0, 5, 17, 100, 335, 5])
    for g in G.generators:
        assert np.array_equal(G.conjugation_ids(g, ids), G.conjugation_ids(g)[ids])


@pytest.mark.parametrize("name", ["sym4", "pgl(2,9)", "pgl(3,4)"])
def test_derived_series_matches_oracle(name):
    G = catalog.resolve(name)
    series, ref = pc.derived_series(G), oracle_derived_series(G)
    assert [s.tolist() for s in series] == [s.tolist() for s in ref]


@pytest.mark.slow
def test_derived_series_of_aut_psl34_matches_oracle(aut_psl34):
    series, ref = pc.derived_series(aut_psl34), oracle_derived_series(aut_psl34)
    assert [s.size for s in series] == [241920, 60480, 20160]
    assert [s.tolist() for s in series] == [s.tolist() for s in ref]
