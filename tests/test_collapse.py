"""Collapse search, replay checking, and certificate serialization."""

import importlib
import itertools
import json

from hypothesis import assume, given, settings, strategies as st

from oracles import brute_homology

from raag.classify import UNDETERMINED, ZERO, classify
from raag.collapse import CollapseSequence, collapse, replay_collapse
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
        assert seq is not None
        ok, reason = replay_collapse(x, seq)
        assert ok, reason
        # each pair removes two faces; one vertex remains
        assert 2 * len(seq) == sum(x.f_vector()) - 1


def test_single_point_collapses_trivially():
    pt = from_facets([[0]])
    seq = collapse(pt)
    assert seq is not None and len(seq) == 0
    assert replay_collapse(pt, seq)[0]


def test_cycles_and_surfaces_do_not_collapse():
    assert collapse(fixture("cycle", n=5), budget=8) is None
    assert collapse(fixture("rp2_flag"), budget=2) is None
    assert collapse(fixture("discrete", n=2), budget=2) is None
    assert collapse(from_facets([]), budget=2) is None


def test_contractible_but_stuck_complex():
    # no triangulation of this complex has a free edge, so the search must
    # come up empty even though the complex is contractible
    assert collapse(fixture("dunce"), budget=16) is None
    assert collapse(fixture("dunce_flag"), budget=4) is None


def test_budget_zero_runs_deterministic_pass_only():
    assert collapse(fixture("simplex", n=2), budget=0) is not None
    assert collapse(fixture("cycle", n=4), budget=0) is None


def _count_attempts(monkeypatch):
    calls = []
    real = collapse_module._attempt

    def counted(x, seed):
        calls.append(seed)
        return real(x, seed)

    monkeypatch.setattr(collapse_module, "_attempt", counted)
    return calls


def test_no_free_face_skips_restarts(monkeypatch):
    calls = _count_attempts(monkeypatch)
    for x in (fixture("cycle", n=5), fixture("rp2_flag"), fixture("dunce_flag"),
              fixture("discrete", n=2)):
        calls.clear()
        assert collapse(x, budget=8) is None
        assert calls == [None]


def test_no_free_face_builds_the_face_state_once(monkeypatch):
    # the deterministic pass removes no pair exactly when no face is free,
    # so no second state is built to ask
    built = []
    state = collapse_module._State
    monkeypatch.setattr(collapse_module, "_State",
                        lambda faces: built.append(1) or state(faces))
    for x in (fixture("cycle", n=5), fixture("dunce_flag"), fixture("discrete", n=2)):
        built.clear()
        assert collapse(x, budget=8) is None
        assert built == [1]


def test_free_faces_but_stuck_runs_every_restart(monkeypatch):
    calls = _count_attempts(monkeypatch)
    # a 4-cycle with a pendant edge: vertex 4 is free, the cycle then sticks
    assert collapse(from_facets([[0, 1], [1, 2], [2, 3], [0, 3], [3, 4]]), budget=5) is None
    assert calls == [None, 0, 1, 2, 3, 4]


def test_collapse_deterministic_across_runs():
    x = fixture("disk_flag")
    a = collapse(x)
    b = collapse(x)
    assert a == b


def test_replay_rejects_tampering():
    x = fixture("simplex", n=2)
    seq = collapse(x)
    assert seq is not None and replay_collapse(x, seq)[0]

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
    assert seq is not None
    data = json.loads(seq.to_json())
    back = CollapseSequence.from_json(json.dumps(data))
    assert back == seq
    assert replay_collapse(x, back)[0]


# -- collapse searches that homology rules out ------------------------------------------


def test_classify_searches_only_acyclic_two_complexes(monkeypatch):
    calls = _count_attempts(monkeypatch)
    annulus, _ = induced_subcomplex(_polygon_disk(6), range(12))
    assert classify(annulus).outcome == UNDETERMINED
    assert calls == []
    for name, outcome in (("dunce_flag", UNDETERMINED), ("disk_flag", ZERO)):
        calls.clear()
        assert classify(fixture(name)).outcome == outcome
        assert len(calls) >= 1


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
    assert collapse(L, budget=4) is None
