"""The collapse pass, replay checking, and certificate serialization."""

import importlib
import itertools
import json

from hypothesis import assume, given, settings, strategies as st

from oracles import brute_homology, seeded_greedy_collapse

from raag.classify import UNDETERMINED, ZERO, classify
from raag.collapse import CollapseSequence, collapse, reaches_vertex, replay_collapse
from raag.fixtures import _polygon_disk, fixture
from raag.simplicial import (barycentric_subdivision, cone, flag_completion, from_facets,
                             induced_subcomplex)

# the package re-exports the function collapse under the submodule's name
collapse_module = importlib.import_module("raag.collapse")


def test_collapses_cones_and_disks():
    for x in (cone(fixture("cycle", n=5)), fixture("disk_flag"),
              fixture("simplex", n=3),
              barycentric_subdivision(fixture("simplex", n=2)).complex):
        seq = collapse(x)
        assert reaches_vertex(x, seq)
        ok, reason = replay_collapse(x, seq)
        assert ok, reason
        # each pair removes two faces; one vertex remains
        assert 2 * len(seq) == sum(x.f_vector()) - 1


def test_single_point_collapses_trivially():
    pt = from_facets([[0]])
    seq = collapse(pt)
    assert reaches_vertex(pt, seq) and len(seq) == 0
    assert replay_collapse(pt, seq)[0]


def test_cycles_and_surfaces_do_not_collapse():
    for x in (fixture("cycle", n=5), fixture("rp2_flag"), fixture("discrete", n=2),
              from_facets([])):
        assert not reaches_vertex(x, collapse(x))


def test_contractible_but_stuck_complex():
    # no triangulation of this complex has a free edge, so the pass must
    # come up empty even though the complex is contractible
    for x in (fixture("dunce"), fixture("dunce_flag")):
        seq = collapse(x)
        assert len(seq) == 0 and not reaches_vertex(x, seq)


def _count_states(monkeypatch):
    built = []
    state = collapse_module._State
    monkeypatch.setattr(collapse_module, "_State",
                        lambda faces: built.append(1) or state(faces))
    return built


def test_no_free_face_builds_the_face_state_once(monkeypatch):
    built = _count_states(monkeypatch)
    for x in (fixture("cycle", n=5), fixture("dunce_flag"), fixture("discrete", n=2)):
        built.clear()
        assert not reaches_vertex(x, collapse(x))
        assert built == [1]


def test_stuck_pass_is_returned_with_a_null_seed():
    # a 4-cycle with a pendant edge: vertex 4 is free, the cycle then sticks
    x = from_facets([[0, 1], [1, 2], [2, 3], [0, 3], [3, 4]])
    seq = collapse(x)
    assert seq.pairs == (((4,), (3, 4)),) and seq.seed is None
    assert not reaches_vertex(x, seq)


def test_collapse_deterministic_across_runs():
    x = fixture("disk_flag")
    a = collapse(x)
    b = collapse(x)
    assert a == b


def test_replay_rejects_tampering():
    x = fixture("simplex", n=2)
    seq = collapse(x)
    assert replay_collapse(x, seq)[0]

    # missing face: replay the same sequence on a different complex
    other = fixture("cycle", n=4)
    ok, reason = replay_collapse(other, seq)
    assert not ok and "not a current face" in reason

    # non-covering pair
    bad = CollapseSequence(pairs=(((0,), (0, 1, 2)),) + seq.pairs[1:])
    ok, reason = replay_collapse(x, bad)
    assert not ok and "cover" in reason

    # legal-looking pair whose free face has a second coface
    square = from_facets([[0, 1, 2], [0, 2, 3]])
    ok, reason = replay_collapse(square, CollapseSequence(pairs=(((0, 2), (0, 1, 2)),)))
    assert not ok

    # stopping early leaves more than one vertex
    truncated = CollapseSequence(pairs=seq.pairs[:-1])
    ok, reason = replay_collapse(x, truncated)
    assert not ok


def test_sequence_json_round_trip():
    x = cone(fixture("cycle", n=4))
    seq = collapse(x)
    assert reaches_vertex(x, seq)
    data = json.loads(json.dumps(seq.to_json_dict()))
    assert data["seed"] is None
    back = CollapseSequence.from_json_dict(data)
    assert back == seq
    assert replay_collapse(x, back)[0]


# -- collapse passes that homology rules out ------------------------------------------


def test_classify_searches_only_acyclic_two_complexes(monkeypatch):
    built = _count_states(monkeypatch)
    annulus, _ = induced_subcomplex(_polygon_disk(6), range(12))
    assert classify(annulus).outcome == UNDETERMINED
    assert built == []
    for name, outcome in (("dunce_flag", UNDETERMINED), ("disk_flag", ZERO)):
        built.clear()
        assert classify(fixture(name)).outcome == outcome
        assert built == [1]


@st.composite
def flag_two_complexes(draw):
    """Clique complexes of K_4-free graphs on at most 8 vertices: an edge is
    kept only if its ends have no adjacent common neighbours."""
    n = draw(st.integers(3, 8))
    pairs = list(itertools.combinations(range(n), 2))
    order = draw(st.permutations(pairs))
    wanted = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = {v: set() for v in range(n)}
    for (u, v), keep in zip(order, wanted):
        common = adj[u] & adj[v]
        if keep and not any(adj[a] & common for a in common):
            adj[u].add(v)
            adj[v].add(u)
    edges = [[u, v] for u in range(n) for v in adj[u] if u < v]
    return flag_completion(from_facets([[v] for v in range(n)] + edges))


@settings(max_examples=150, deadline=None)
@given(flag_two_complexes())
def test_nonzero_reduced_homology_admits_no_collapse(L):
    # the premise of classify's skip: collapsible implies contractible
    assume(L.dim == 2)
    betti, torsion = brute_homology(list(L.facets), reduced=True)
    assume(any(betti) or any(torsion))
    assert not reaches_vertex(L, collapse(L))


@settings(max_examples=150, deadline=None)
@given(flag_two_complexes())
def test_one_pass_agrees_with_every_seeded_order(L):
    # in dimension at most 2 greedy collapsing does not depend on the order,
    # so the one pass reaches a vertex exactly when a seeded order does
    facets = list(L.facets)
    one = reaches_vertex(L, collapse(L))
    assert {seeded_greedy_collapse(facets, seed) for seed in range(16)} == {one}
