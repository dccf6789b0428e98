"""Census: every nonempty clique complex of a graph on at most 7 vertices.

networkx ships Read and Wilson's atlas of all 1,253 graphs on at most 7
vertices up to isomorphism (*An Atlas of Graphs*, 1998); the first is the
empty graph.  Each of the other 1,252 is turned into its clique complex
through the oracle's maximal cliques and checked against the dense oracles,
and the verdicts are pinned as a count table rather than per complex.  The
growth test takes the 52 complexes on at most 5 vertices, and the join
test the 7 on at most 3, each joined with itself.
"""

import functools
from collections import Counter

import networkx as nx

from oracles import (brute_betti_fp, brute_homology, maximal_cliques_networkx,
                     seeded_greedy_collapse, support_table_unsplit)

from raag.classify import POSITIVE, UNDETERMINED, ZERO, classify, replay_certificate
from raag.growth import growth_experiment
from raag.homology import betti_Fp, homology_summary
from raag.models import CubeComplex, FiniteQuotientSpec, standard_spec
from raag.simplicial import from_facets, is_flag, join_factors

# (dimension, outcome, certificate kind) -> number of complexes
COUNTS = {
    (0, POSITIVE, "TopCohomologyNonzero"): 6,
    (0, ZERO, "ComplementaryVanishing"): 1,
    (1, POSITIVE, "TopCohomologyNonzero"): 93,
    (1, ZERO, "ComplementaryVanishing"): 72,
    (2, POSITIVE, "TopCohomologyNonzero"): 8,
    (2, ZERO, "CollapsibleSelf"): 221,
    (2, UNDETERMINED, None): 450,
    (3, ZERO, "ComplementaryVanishing"): 336,
    (4, ZERO, "ComplementaryVanishing"): 57,
    (5, ZERO, "ComplementaryVanishing"): 7,
    (6, ZERO, "ComplementaryVanishing"): 1,
}


@functools.lru_cache(maxsize=None)
def census():
    """(clique complex, its dense reduced homology) for each atlas graph with
    at least one vertex."""
    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n:
            facets = maximal_cliques_networkx(n, list(g.edges()))
            betti, torsion = brute_homology(facets, reduced=True)
            out.append((from_facets(facets), tuple(betti), tuple(torsion)))
    return tuple(out)


def test_census_is_every_nonempty_atlas_graph():
    assert len(census()) == 1252
    assert max(L.n_vertices for L, _, _ in census()) == 7


def test_census_is_flag_and_matches_dense_homology():
    for L, betti, torsion in census():
        assert is_flag(L)[0], L.facets
        h = homology_summary(L, reduced=True)
        assert (h.betti, h.torsion) == (betti, torsion), L.facets


def test_census_verdicts_replay_and_count():
    counts = Counter()
    for L, betti, torsion in census():
        v = classify(L)
        kind = None if v.certificate is None else v.certificate.kind
        counts[(L.dim, v.outcome, kind)] += 1
        if v.certificate is not None:
            ok, why = replay_certificate(L, v)
            assert ok, (L.facets, why)
        # positive exactly when the top cohomology is nonzero: b_d > 0 or
        # torsion in H_{d-1}, read off the dense oracle
        d = L.dim
        top = betti[d] > 0 or (d > 0 and bool(torsion[d - 1]))
        assert (v.outcome == POSITIVE) == top, L.facets
    assert dict(counts) == COUNTS


def test_census_dimension_two_is_zero_exactly_when_acyclic_and_collapsible():
    # below positive entropy, a 2-complex is zero exactly when the dense
    # oracle finds it acyclic and the oracle's greedy pass collapses it
    checked = 0
    for L, betti, torsion in census():
        if L.dim != 2:
            continue
        v = classify(L)
        if v.outcome == POSITIVE:
            continue
        checked += 1
        acyclic = not any(betti) and not any(torsion)
        want = acyclic and seeded_greedy_collapse(L.facets, 0)
        assert (v.outcome == ZERO) == want, L.facets
    assert checked == 671


def test_census_growth_matches_unsplit_table_and_built_cover():
    # one complex per atlas graph on at most 5 vertices, fresh, at p = 2 and
    # then 3, so that the second prime's calls read rows its factors keep:
    # a standard spec against the dense whole-L support table, and a spec of
    # Z/6, whose p-part and p'-part are both nontrivial, against the cover
    small = [from_facets(L.facets) for L, _, _ in census() if L.n_vertices <= 5]
    assert len(small) == 52
    for L in small:
        n = L.n_vertices
        mixed = FiniteQuotientSpec((6,), ((1,),) * n)
        for p in (2, 3):
            series = growth_experiment(L, [standard_spec(L, 2)], p)
            assert series.covers[0].betti == support_table_unsplit(L.facets, (2,) * n, p), L.facets
            series = growth_experiment(L, [mixed], p)
            assert series.covers[0].betti == betti_Fp(CubeComplex(L, mixed).chain_complex(), p), \
                L.facets
        assert all(sorted(F._rows) == [2, 3] for F in join_factors(L))


def test_census_joins_with_themselves_match_dense_homology_and_unsplit_table():
    # L * L, the copies interleaved (vertex v of the first at 2v, of the
    # second at 2v + 1): its two halves are equal factors, shared as one
    # object, whose homology, F_p ranks and support rows serve both
    small = [L for L, _, _ in census() if L.n_vertices <= 3]
    assert len(small) == 7
    for L in small:
        J = from_facets([[2 * v for v in f] + [2 * v + 1 for v in g]
                         for f in L.facets for g in L.facets])
        betti, torsion = brute_homology(J.facets, reduced=True)
        h = homology_summary(J, reduced=True, primes=(2, 3))
        assert (h.betti, h.torsion) == (tuple(betti), tuple(torsion)), L.facets
        for p in (2, 3):
            assert h.betti_fp(p) == tuple(brute_betti_fp(J.facets, p, reduced=True)), L.facets
            series = growth_experiment(J, [standard_spec(J, 2)], p)
            want = support_table_unsplit(J.facets, (2,) * J.n_vertices, p)
            assert series.covers[0].betti == want, L.facets
