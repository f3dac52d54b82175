"""`permcore.quotient_group`, `coset_partition` and `is_normal` against the
routines they replaced or an independent route, kept here as oracles: the
quotient generators found by one scalar lookup per representative and
generator, the projection built from the whole group's inverse table and m^2
scalar products, and the cosets looked up by one full-row `ids_of` each.  Both
sides must give the same quotient elements, quotient generators and
projection, and the same coset labels and representatives.  The normal
subgroups come from `subgroup_oracle`: `is_normal`, which reads the class
table, must accept each normal closure there and refuse every subgroup that is
not its own normal closure.  The chain of the conjugates of a derived term's
commutators (`close_group`, `schreier_sims`) must close to the next term, and
the seeds it keeps must generate that term alone."""

import numpy as np
import pytest

from autorbit import catalog
from autorbit import permcore as pc
from autorbit import stypes as st
from autorbit.autgrp import inner_automorphism_ids
from autorbit.permcore import GroupError
from aut_closed import closed_aut
from stypes_oracle import coarse_quotient
from subgroup_oracle import closure, derived_series, derived_subgroup, normal_closure
from test_permcore_oracle import CATALOG, LARGE, seed_sets


def oracle_quotient(G, N):
    """(Q, pi): Q on the right cosets N*r, generated by the generators' right
    translations; pi sends N*r_k to the translation j -> N*r_j*r_k^-1."""
    coset_of, reps = pc.coset_partition(G, N)
    qgens = [pc._check_bijection(np.array([int(coset_of[G.id_of(G.elements[r][g])])
                                           for r in reps], dtype=pc.point_dtype(len(reps))))
             for g in G.elements[G.gen_ids]]
    Q = pc.close_group(np.reshape(qgens, (-1, len(reps))))
    inv = G.inverse_ids()
    coset_to_qid = np.empty(len(reps), dtype=np.int64)
    for k, rep in enumerate(reps):
        rk_inv = int(inv[rep])
        images = [int(coset_of[G.mul_ids(int(r), rk_inv)]) for r in reps]
        coset_to_qid[k] = Q.id_of(np.array(images))
    pi = coset_to_qid[coset_of]
    for g in G.gen_ids:
        for x in G.gen_ids:
            if pi[G.mul_ids(g, x)] != Q.mul_ids(int(pi[g]), int(pi[x])):
                raise GroupError("quotient projection is not a homomorphism")
    return Q, pi


def oracle_coset_partition(G, N):
    """Right-coset labels, numbered by least member, each coset N*x looked up
    by `ids_of` of its full rows n*x."""
    coset_of, reps = np.full(G.order, -1, dtype=np.int64), []
    sub_rows = G.elements[np.asarray(N)]
    for x in range(G.order):
        if coset_of[x] < 0:
            coset_of[G.ids_of(sub_rows[:, G.elements[x]])] = len(reps)
            reps.append(x)
    return coset_of, reps


def assert_same_quotient(Q, pi, G, N):
    ref_Q, ref_pi = oracle_quotient(G, N)
    assert np.array_equal(Q.elements, ref_Q.elements)
    assert Q.elements[Q.gen_ids].tolist() == ref_Q.elements[ref_Q.gen_ids].tolist()
    assert np.array_equal(pi, ref_pi)


@pytest.mark.parametrize("name", ["alt5", "alt6", "psl(2,8)", "sym6"])
def test_out_quotient_matches_oracle(name):
    G = catalog.resolve(name)
    A = closed_aut(G)
    socle = inner_automorphism_ids(G, A)
    out = st.out_quotient(A, socle)
    assert out.quotient.name == "out"
    assert_same_quotient(out.quotient, out.pi, A, socle)


def test_coarse_quotient_matches_oracle(alt5, alt5_aut):
    socle = inner_automorphism_ids(alt5, alt5_aut)
    coarse = coarse_quotient(alt5_aut, socle, socle_ids=socle)
    assert_same_quotient(coarse.quotient, coarse.pi, alt5_aut, socle)


SUBGROUPS = {
    "derived": derived_subgroup,
    "second-derived": lambda G: derived_series(G)[2],
    "center": lambda G: G.center_ids(),
    "squares": lambda G: closure(G, [G.mul_ids(i, i) for i in range(G.order)])[0],
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


SUBGROUP_SIZES = {"sym3": [3], "sym4": [4], "alt5": [], "sym5": []}


@pytest.mark.parametrize("name", SUBGROUP_SIZES)
def test_a_class_and_the_identity_make_a_quotient_or_are_refused(name):
    # each set 1 u C, C a class, is normal; only A3 in Sym3 and V4 in Sym4 are
    # also subgroups, and every other set is refused before its cosets are taken
    G = catalog.resolve(name)
    sizes = []
    for cls in pc.conjugacy_classes(G).classes[1:]:
        N = np.sort(np.concatenate([[0], cls]))
        if closure(G, N)[0].size == N.size:
            Q, pi = pc.quotient_group(G, N)
            assert Q.order * N.size == G.order
            assert_same_quotient(Q, pi, G, N)
            sizes.append(N.size)
        else:
            with pytest.raises(GroupError, match="^the normal set is not a subgroup$"):
                pc.quotient_group(G, N)
    assert sizes == SUBGROUP_SIZES[name]


COSET_SUBGROUPS = {  # normal ones, and a point stabilizer whose right and left cosets differ
    "derived": derived_subgroup,
    "center": lambda G: G.center_ids(),
    "trivial": lambda G: np.array([0]),
    "whole": lambda G: np.arange(G.order),
    "stabilizer": lambda G: np.flatnonzero(G.elements[:, 0] == 0),
}


def assert_cosets_match_oracle(G, N):
    coset_of, reps = pc.coset_partition(G, N)
    ref_of, ref_reps = oracle_coset_partition(G, N)
    assert np.array_equal(coset_of, ref_of) and reps == ref_reps
    assert len(reps) * N.size == G.order


@pytest.mark.parametrize("kind", COSET_SUBGROUPS)
@pytest.mark.parametrize("name", [name for name in CATALOG if name not in LARGE])
def test_coset_partition_matches_full_rows(name, kind):
    G = catalog.resolve(name)
    assert_cosets_match_oracle(G, COSET_SUBGROUPS[kind](G))


@pytest.mark.slow
def test_coset_partition_of_aut_psl34_by_its_socle_matches_full_rows(aut_psl34, psl34_socle):
    assert_cosets_match_oracle(aut_psl34, psl34_socle)


def assert_normal_closures_match_oracle(G):
    # a union of classes: each normal closure is one, and a subgroup closure
    # is one iff it is its own normal closure
    for seeds in seed_sets(G):
        N, H = normal_closure(G, seeds), closure(G, seeds)[0]
        assert pc.is_normal(G, N)
        assert pc.is_normal(G, H) == np.array_equal(H, N)


@pytest.mark.parametrize("name", [name for name in CATALOG if name not in LARGE])
def test_normal_closures_of_classes_match_oracle(name):
    assert_normal_closures_match_oracle(catalog.resolve(name))


@pytest.mark.slow
@pytest.mark.parametrize("name", LARGE)
def test_large_normal_closures_match_oracle(name):
    assert_normal_closures_match_oracle(catalog.resolve(name))


def test_conjugation_of_given_ids_is_the_whole_map_restricted():
    # the whole-group map at the given ids is the full-row lookup of their conjugates
    G = catalog.resolve("pgl(2,7)")
    ids = np.array([0, 5, 17, 100, 335, 5])
    for c in G.gen_ids:
        g = G.elements[c]
        full = np.take(g, G.elements[ids][:, np.argsort(g)])  # rows of g x g^-1
        assert np.array_equal(G.conjugation_ids(c)[ids], G.ids_of(full))


def commutator_conjugates(G, gen_ids):
    """The distinct commutators a b a^-1 b^-1 of the given ids, then the other
    ids of their conjugates under the group those ids generate, in the order a
    `sweep` by the ids' whole-group conjugation maps finds them."""
    E = G.elements
    comms = [E[a][E[b][np.argsort(E[a])[np.argsort(E[b])]]] for a in gen_ids for b in gen_ids]
    seeds = np.array(list(dict.fromkeys(G.ids_of(np.reshape(comms, (-1, G.degree))).tolist())))
    maps = [G.conjugation_ids(c) for c in gen_ids]
    step = lambda frontier: (m[frontier] for m in maps)
    found = [new for _, new in pc.sweep(seeds, step, np.zeros(G.order, dtype=bool))]
    return np.concatenate([seeds] + found)


def chain_closure(G, seed_ids):
    """<seeds> by the chain of their rows: its sorted ids (`close_group`), and the
    seeds its chain keeps (`schreier_sims`)."""
    seeds = [int(s) for s in seed_ids]
    kept = [seeds[k] for k in pc.schreier_sims(G.elements[seeds]).kept]
    return np.sort(G.ids_of(pc.close_group(G.elements[kept]).elements)), kept


def closure_derived_series(G):
    """Successive commutator subgroups (sorted id arrays) until they stop
    shrinking, each the `chain_closure` of the conjugates of its predecessor's
    kept seeds' commutators."""
    series, gen_ids = [np.arange(G.order, dtype=np.int64)], G.gen_ids
    while series[-1].size > 1:
        nxt, gen_ids = chain_closure(G, commutator_conjugates(G, gen_ids))
        if nxt.size == series[-1].size:
            break
        series.append(nxt)
    return series


@pytest.mark.parametrize("name", ["sym4", "pgl(2,9)", "pgl(3,4)"])
def test_derived_series_matches_oracle(name):
    G = catalog.resolve(name)
    series, ref = closure_derived_series(G), derived_series(G)
    assert [s.tolist() for s in series] == [s.tolist() for s in ref]


@pytest.mark.parametrize("name", ["sym4", "sym5", "alt4", "pgl(2,9)", "cyclic12",
                                  "extraspecial(3)", "psu(3,2)", "pgu(3,2)", "pgl(3,4)",
                                  pytest.param("autpsl34", marks=pytest.mark.slow)])
def test_kept_commutators_generate_their_term(name):
    # each term closes once: the seeds its chain keeps generate it, and no kept
    # seed lies in the group of those before it
    G = catalog.resolve(name)
    ref, gen_ids = derived_series(G), G.gen_ids
    for k in range(1, len(ref) + 1):
        ids, kept = chain_closure(G, commutator_conjugates(G, gen_ids))
        term = ref[k] if k < len(ref) else ref[-1]  # past the series' end the term repeats
        oracle_ids, oracle_kept = closure(G, kept)
        assert np.array_equal(ids, term) and np.array_equal(oracle_ids, term) and oracle_kept == kept
        gen_ids = kept
