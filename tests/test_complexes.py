"""Simplicial core: construction, flagness, transforms, serialization."""

import functools
import itertools
import json
import random
import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (complement_components_networkx, is_flag_exhaustive,
                     maximal_cliques_networkx, maximal_simplices_quadratic,
                     random_facets)

from raag import simplicial
from raag.errors import MalformedComplexError, QuotientDegenerateError
from raag.fixtures import fixture, standard_fixtures
from raag.growth import growth_experiment, support_betti
from raag.homology import homology_summary
from raag.models import standard_spec
from raag.simplicial import (SimplicialComplex, Subdivision, _maximal_cliques, as_simplex,
                             barycentric_subdivision, complement_components,
                             complex_from_json_dict, complex_to_json_dict, cone,
                             flag_completion, from_facets, induced_subcomplex,
                             is_flag, join, join_factors, join_parts, simplicial_quotient)


# -- construction and canonical form -------------------------------------------


BAD_IDS = (None, "a", 1.0, True, -1, [0])


def _spoil(draw, one_in: int = 6) -> bool:
    # not 0, which hypothesis draws far more often than 1 / one_in
    return draw(st.integers(0, one_in - 1)) == 1


@st.composite
def messy_facet_lists(draw):
    """Facet lists with duplicates, proper sub-faces and unsorted vertices,
    relabeled to dense ids; sometimes spoiled by a bad id at a random place
    or a float in place of an equal id, a repeated id, an empty facet, a
    facet that is not iterable, sparse ids or a wrong declared count.
    Returns (make, declared vertex count or None): make() builds the list
    afresh, as generators where drawn (the list, and each facet), so that
    each loader reads its own copy once."""
    base = draw(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
                         min_size=1, max_size=10))
    facets = []
    for f in base:
        facets.append(f)
        if draw(st.booleans()):
            facets.append(draw(st.permutations(f)))
        if len(f) > 1 and draw(st.booleans()):
            facets.append(draw(st.permutations(f))[:draw(st.integers(1, len(f) - 1))])
    facets = draw(st.permutations(facets))
    relabel = {v: i for i, v in enumerate(sorted({v for f in facets for v in f}))}
    facets = [[relabel[v] for v in f] for f in facets]
    n = len(relabel)
    if _spoil(draw):  # ids from `start` up move up by `gap`: gap ids missing
        start, gap = draw(st.integers(1, n)), draw(st.integers(1, 12))
        facets = [[v + gap if v >= start else v for v in f] for f in facets]
    for _ in range(draw(st.integers(1, 2)) if _spoil(draw, 4) else 0):
        f = draw(st.sampled_from(facets))
        ids = [i for i, v in enumerate(f) if type(v) is int]
        if ids and draw(st.booleans()):  # equal to the id it replaces, as 1.0 == 1
            i = draw(st.sampled_from(ids))
            f[i] = float(f[i])
        else:
            f.insert(draw(st.integers(0, len(f))), draw(st.sampled_from(BAD_IDS)))
    if _spoil(draw):
        f = draw(st.sampled_from(facets))
        f.insert(draw(st.integers(0, len(f))), draw(st.sampled_from(f)))
    if _spoil(draw):
        facets.insert(draw(st.integers(0, len(facets))), [])
    if _spoil(draw, 12):
        facets.insert(draw(st.integers(0, len(facets))), draw(st.sampled_from([5, None])))
    declared = n + draw(st.sampled_from([-1, 1])) if _spoil(draw) else draw(
        st.sampled_from([None, n]))
    inner = [isinstance(f, list) and draw(st.booleans()) for f in facets]
    outer = draw(st.booleans())

    def make():
        fresh = [(v for v in f) if gen else (list(f) if isinstance(f, list) else f)
                 for f, gen in zip(facets, inner)]
        return (f for f in fresh) if outer else fresh
    return make, declared


def _as_simplex_as_before(vertices):
    vs = list(vertices)
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise MalformedComplexError(f"vertex ids must be nonnegative integers, got {v!r}")
    vs.sort()
    if len(set(vs)) != len(vs):
        raise MalformedComplexError(f"duplicate vertices within a facet: {tuple(vs)}")
    return tuple(vs)


def _load_as_before(facets, n_vertices):
    """The loader's former route, facet by facet: each facet checked and
    sorted in input order, quadratic absorption, then the empty-facet,
    density and declared-count checks.  Returns (facets, vertex count)."""
    simplices = {_as_simplex_as_before(f) for f in facets}
    if () in simplices:
        raise MalformedComplexError("the empty simplex cannot be listed as a facet")
    used = {v for s in simplices for v in s}
    n = max(used) + 1 if used else 0
    if len(used) != n:
        first = [v for v in range(n) if v not in used][:10]
        raise MalformedComplexError(
            f"vertex ids must be dense 0..{n - 1}; {n - len(used)} missing, the first {first}")
    if n_vertices is not None and n_vertices != n:
        raise MalformedComplexError(f"declared vertex count {n_vertices} != inferred {n}")
    return tuple(maximal_simplices_quadratic(simplices)), n


def _load(facets, n_vertices):
    x = from_facets(facets, n_vertices=n_vertices)
    return x.facets, x.n_vertices


def _outcome(load, make, declared):
    try:
        return load(make(), declared)
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(messy_facet_lists())
def test_from_facets_matches_quadratic_absorption(case):
    # the same facets and vertex count, or the same exception and message
    assert _outcome(_load, *case) == _outcome(_load_as_before, *case)


def test_from_facets_canonicalizes_and_absorbs():
    x = from_facets([[2, 1, 0], [0, 1], [1, 2]])
    assert x.facets == ((0, 1, 2),)
    assert x.f_vector() == (3, 3, 1)
    assert x.dim == 2


def test_from_facets_examples_from_contract():
    assert from_facets([[0, 1], [1, 2], [0, 2]]).f_vector() == (3, 3)
    assert from_facets([[0, 1, 2]]).f_vector() == (3, 3, 1)
    two = from_facets([[0], [1]])
    assert two.dim == 0 and two.n_vertices == 2


def test_from_facets_rejects_bad_input():
    with pytest.raises(MalformedComplexError):
        as_simplex([0, 0, 1])
    with pytest.raises(MalformedComplexError):
        from_facets([[0, 2]])  # vertex 1 missing: ids not dense
    with pytest.raises(MalformedComplexError):
        from_facets([[-1, 0]])
    with pytest.raises(MalformedComplexError):
        from_facets([[0, 1], []])


@pytest.mark.parametrize("facet", [[None, 1], [1, "a"], [0, 1.0], [True, 2]])
def test_vertex_types_are_checked_before_sorting(facet):
    # sorting first would raise TypeError on values that do not compare
    with pytest.raises(MalformedComplexError, match="nonnegative integers"):
        from_facets([facet])


def test_the_first_bad_id_as_listed_is_named():
    # sorted, -1 would come first
    with pytest.raises(MalformedComplexError, match=r"got 1\.5$"):
        from_facets([[1.5, -1]])


@pytest.mark.parametrize("build", [
    lambda: from_facets([[0], [2_000_000]]),
    lambda: simplicial_quotient(from_facets([[0], [1]]), [0, 2_000_000]),
])
def test_sparse_ids_are_reported_by_count_and_first_ten(build):
    with pytest.raises(MalformedComplexError) as info:
        build()
    message = str(info.value)
    assert "1999999 missing, the first [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]" in message
    assert len(message) < 300


def test_loading_a_large_pure_join_is_not_quadratic():
    # 120 * 120 facets of six vertices: the indexed walk keeps the top size
    # whole and loads them in a few hundredths of a second, where absorption
    # testing pairs of facets took 17-28 s on the 9,720 of rp2_flag * moore_flag(3)
    triangles = list(itertools.combinations(range(10), 3))
    data = {"vertices": 20, "facets": [list(a) + [v + 10 for v in b]
                                       for a in triangles for b in triangles]}
    start = time.perf_counter()
    x = complex_from_json_dict(data)
    elapsed = time.perf_counter() - start
    assert len(x.facets) == 14_400 and x.dim == 5
    assert elapsed < 2.0


def test_quotient_rejects_negative_targets():
    # the image {-1, 1} has as many ids as 0..1, so the sizes alone would pass
    with pytest.raises(MalformedComplexError, match="nonnegative"):
        simplicial_quotient(from_facets([[0], [1]]), [-1, 1])


def test_face_enumeration_closure():
    x = fixture("rp2_6")
    for k in range(x.dim + 1):
        for f in x.faces(k):
            for sub in itertools.combinations(f, k):
                if sub:
                    assert x.has_face(sub)


def test_euler_characteristic():
    assert fixture("octahedron").euler_characteristic() == 2
    assert fixture("cycle", n=5).euler_characteristic() == 0
    assert fixture("rp2_6").euler_characteristic() == 1


# -- flagness -------------------------------------------------------------------


def test_is_flag_fixture_cases():
    ok, witness = is_flag(fixture("octahedron"))
    assert ok and witness is None
    ok, witness = is_flag(fixture("rp2_6"))
    assert not ok
    assert witness == (0, 1, 3)
    # the witness is a clique: all edges present, face absent
    x = fixture("rp2_6")
    for pair in itertools.combinations(witness, 2):
        assert x.has_face(pair)
    assert not x.has_face(witness)


def test_hollow_simplex_boundary_not_flag():
    ok, witness = is_flag(fixture("simplex_boundary", n=3))
    assert not ok and len(witness) == 4


def test_is_flag_matches_exhaustive_oracle_on_fixtures():
    for name, x in standard_fixtures().items():
        if x.n_vertices <= 14:
            assert is_flag(x)[0] == is_flag_exhaustive(x.n_vertices, x.facets), name


def test_is_flag_matches_exhaustive_oracle_randomized():
    rng = random.Random(7)
    for _ in range(60):
        facets = random_facets(rng, max_vertices=7)
        x = from_facets(facets)
        assert is_flag(x)[0] == is_flag_exhaustive(x.n_vertices, x.facets)


def test_empty_complex_is_flag():
    assert is_flag(from_facets([])) == (True, None)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_flag_completion_of_complete_graph_deeper_than_recursion_limit():
    # the clique search keeps its frames on a list, so a clique of n vertices
    # fits in far fewer than n frames of headroom
    n = 150
    k_n = from_facets(itertools.combinations(range(n), 2))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + n // 3)
    try:
        completed = flag_completion(k_n)
    finally:
        sys.setrecursionlimit(limit)
    assert completed.facets == (tuple(range(n)),)


def test_flag_completion():
    c4 = fixture("cycle", n=4)
    assert flag_completion(c4) == c4
    k4 = from_facets(list(itertools.combinations(range(4), 2)))
    assert flag_completion(k4).facets == ((0, 1, 2, 3),)
    p3 = fixture("path", n=3)
    assert flag_completion(p3) == p3
    with pytest.raises(MalformedComplexError):
        flag_completion(fixture("simplex", n=2))


# -- subdivision -----------------------------------------------------------------


def test_sd_edge_is_path():
    sd = barycentric_subdivision(fixture("simplex", n=1))
    assert sd.complex.f_vector() == (3, 2)


def test_sd_of_the_empty_complex_is_the_named_empty_complex():
    sd = barycentric_subdivision(from_facets([], name="e"))
    assert sd.vertex_simplex == () and sd.complex.n_vertices == 0 and sd.complex.is_empty()
    assert sd.complex.name == "sd(e)"


def test_sd_triangle_boundary_is_hexagon():
    sd = barycentric_subdivision(fixture("simplex_boundary", n=2)).complex
    assert sd.f_vector() == (6, 6)
    assert sd.euler_characteristic() == 0


def test_sd_rp2_f_vector():
    sd = barycentric_subdivision(fixture("rp2_6")).complex
    assert sd.f_vector() == (31, 90, 60)


def test_sd_metadata_vertex_simplices():
    x = fixture("simplex", n=2)
    sd = barycentric_subdivision(x)
    assert isinstance(sd, Subdivision)
    labels = set(sd.vertex_simplex)
    expected = {f for k in range(x.dim + 1) for f in x.faces(k)}
    assert labels == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sd_is_flag_and_preserves_chi(seed):
    facets = random_facets(random.Random(seed), max_vertices=6)
    x = from_facets(facets)
    sd = barycentric_subdivision(x).complex
    assert is_flag(sd)[0]
    assert sd.euler_characteristic() == x.euler_characteristic()
    # f-vector bookkeeping: vertices of sd = total faces of x
    assert sd.n_vertices == sum(x.f_vector())


# -- cone and join ---------------------------------------------------------------


def test_cone_shapes():
    pt = cone(from_facets([]))
    assert pt.f_vector() == (1,)
    p3 = cone(fixture("discrete", n=2))
    assert p3.f_vector() == (3, 2)
    c3cone = cone(fixture("simplex_boundary", n=2))
    assert c3cone.f_vector() == (4, 6, 3)


def test_cone_flag_iff_base_flag():
    assert is_flag(cone(fixture("cycle", n=4)))[0]
    assert not is_flag(cone(fixture("simplex_boundary", n=2)))[0]


def test_join_shapes():
    s0 = fixture("discrete", n=2)
    c4 = join(s0, s0)
    assert c4.f_vector() == (4, 4)
    assert c4.dim == 1
    octa = join(c4, s0)
    assert octa.f_vector() == (6, 12, 8)
    assert octa.euler_characteristic() == 2


def test_join_empty_identity():
    empty = from_facets([])
    x = fixture("cycle", n=5)
    assert join(x, empty).f_vector() == x.f_vector()
    assert join(empty, x).f_vector() == x.f_vector()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_join_f_polynomial_multiplicative(seed1, seed2):
    a = from_facets(random_facets(random.Random(seed1), max_vertices=5))
    b = from_facets(random_facets(random.Random(seed2), max_vertices=5))
    j = join(a, b)

    def poly(x):
        # coefficient list of f(t) = 1 + sum f_{i-1} t^i
        coeffs = [1] + list(x.f_vector())
        return coeffs

    pa, pb, pj = poly(a), poly(b), poly(j)
    prod = [0] * (len(pa) + len(pb) - 1)
    for i, u in enumerate(pa):
        for k, v in enumerate(pb):
            prod[i + k] += u * v
    assert prod == pj + [0] * (len(prod) - len(pj))


def test_join_of_flags_is_flag():
    j = join(fixture("cycle", n=4), fixture("path", n=3))
    assert is_flag(j)[0]


# -- quotient --------------------------------------------------------------------


def test_quotient_identity_and_degenerate():
    x = fixture("cycle", n=4)
    assert simplicial_quotient(x, (0, 1, 2, 3)) == x
    with pytest.raises(QuotientDegenerateError):
        simplicial_quotient(fixture("simplex", n=2), (0, 0, 1))


def test_quotient_icosahedron_to_rp2():
    ico = fixture("icosahedron")
    q = simplicial_quotient(ico, (0, 1, 2, 3, 4, 5, 4, 5, 1, 2, 3, 0))
    assert q.f_vector() == (6, 15, 10)
    # 1-skeleton is complete
    assert len(q.faces(1)) == 15


def test_quotient_requires_dense_image():
    with pytest.raises(MalformedComplexError):
        simplicial_quotient(fixture("cycle", n=4), (0, 1, 0, 3))


# -- decomposition ----------------------------------------------------------------


def test_complement_components_and_join_factors():
    c4 = fixture("cycle", n=4)
    assert complement_components(c4) == [(0, 2), (1, 3)]
    factors = join_factors(fixture("octahedron"))
    assert len(factors) == 3
    for f in factors:
        assert f.f_vector() == (2,)
    assert join_factors(fixture("cycle", n=5)) == [fixture("cycle", n=5)]


def test_complement_components_of_a_long_cycle_is_linear():
    # C_n's complement is one part, found from vertex 0; a set shrunk in place
    # keeps the hash table of all n vertices, and each later difference walks
    # it: 1.9 s at n = 20,000 before unseen was rebound, about 0.03 s after
    n = 20_000
    x = from_facets([(i, (i + 1) % n) for i in range(n)])
    start = time.perf_counter()
    parts = complement_components(x)
    assert time.perf_counter() - start < 1.0
    assert parts == [tuple(range(n))]


@st.composite
def graphs(draw, max_vertices=8):
    """(n, edges): edgeless, complete or random simple graphs on 0..max_vertices
    vertices."""
    n = draw(st.integers(0, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    kind = draw(st.sampled_from(("edgeless", "complete", "random")))
    if kind == "edgeless":
        return n, []
    if kind == "complete":
        return n, pairs
    return n, [e for e in pairs if draw(st.booleans())]


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_complement_components_match_explicit_complement(graph):
    n, edges = graph
    x = from_facets([[v] for v in range(n)] + [list(e) for e in edges])
    assert complement_components(x) == complement_components_networkx(n, edges)


@settings(max_examples=300, deadline=None)
@given(graphs(max_vertices=12))
def test_maximal_cliques_match_networkx(graph):
    n, edges = graph
    x = from_facets([[v] for v in range(n)] + [list(e) for e in edges])
    assert sorted(_maximal_cliques(x)) == maximal_cliques_networkx(n, edges)

def _enumerated_f_vector(x):
    return tuple(len(x.faces(k)) for k in range(x.dim + 1))


def _split_f_vector(x):
    """f-vector of a join, flag or not; the split lists the edges, and no
    face of higher dimension is listed."""
    fv = x.f_vector()
    assert len(join_factors(x)) > 1
    assert all(k not in x._faces for k in range(2, x.dim + 1))
    return fv


@settings(max_examples=40, deadline=None)
@given(st.lists(graphs(max_vertices=5), min_size=2, max_size=3), st.booleans(),
       st.randoms(use_true_random=False))
def test_join_f_vector_from_factors_matches_enumeration(parts, non_flag, rng):
    factors = [flag_completion(from_facets([[v] for v in range(n)] + list(edges)))
               for n, edges in parts if n]
    assume(len(factors) >= 2)
    if non_flag:
        factors[-1] = _unsplit_non_flag(rng, 5)
    x = functools.reduce(join, factors)
    assert _split_f_vector(x) == _enumerated_f_vector(x)


def test_big_join_f_vector_from_factors():
    x = join(fixture("rp2_flag"), fixture("moore_flag", q=3))
    assert _split_f_vector(x) == (110, 2779, 14772, 31362, 28980, 9720)
    assert _enumerated_f_vector(x) == (110, 2779, 14772, 31362, 28980, 9720)


def test_f_vector_of_non_flag_complex_ignores_its_split():
    # the complement of the hollow triangle splits into three points, whose
    # join is the solid triangle, so the hollow one is its own only factor
    hollow = from_facets([[0, 1], [1, 2], [0, 2]])
    assert join_factors(hollow) == [hollow]
    assert hollow.f_vector() == (3, 3)
    assert not is_flag(hollow)[0]
    assert hollow.f_vector() == (3, 3)
    solid = from_facets([[0, 1, 2]])
    assert is_flag(solid)[0] and len(join_factors(solid)) == 3
    assert solid.f_vector() == (3, 3, 1)


# -- the flag check of a complex whose complement splits ----------------------------


def _random_factor(rng, max_vertices):
    """One of three kinds: a random facet list, which is often not flag; the
    clique complex of a random graph; or one whose graph has a connected
    complement, which the split of a join keeps whole, with a facet of 3 or
    more vertices replaced by its boundary, which makes it not flag."""
    kind = rng.choice(("facets", "graph", "hollow"))
    if kind == "facets":
        return from_facets(random_facets(rng, max_vertices=max_vertices))
    n = rng.randint(1, max_vertices) if kind == "graph" else max_vertices
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "graph":
        edges = [e for e in pairs if rng.random() < 0.5]
    else:  # the complement is a random tree plus random chords
        co_edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges = [e for e in pairs if e not in co_edges and rng.random() < 0.8]
    facets = list(flag_completion(from_facets([[v] for v in range(n)] + edges)).facets)
    big = [f for f in facets if len(f) >= 3]
    if kind == "hollow" and big:
        f = rng.choice(big)
        facets.remove(f)
        facets.extend(itertools.combinations(f, len(f) - 1))
    return from_facets(facets)


def _unsplit_non_flag(rng, max_vertices):
    """A _random_factor that is not flag and whose complement is connected,
    so a join keeps it whole as one factor."""
    while True:
        x = _random_factor(rng, max_vertices)
        if (len(complement_components_networkx(x.n_vertices, x.faces(1))) == 1
                and not is_flag_exhaustive(x.n_vertices, x.facets)):
            return x


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.sampled_from(("join", "drop", "add")),
       st.randoms(use_true_random=False))
def test_split_flag_check_matches_whole_complex_oracles(n_factors, perturb, rng):
    size = {2: 6, 3: 5}[n_factors]
    factors = [_random_factor(rng, size) for _ in range(n_factors)]
    facets = list(functools.reduce(join, factors).facets)
    if perturb == "drop":
        # only a facet whose vertices all lie in other facets, so ids stay dense
        droppable = [f for f in facets
                     if all(any(v in g for g in facets if g != f) for v in f)]
        if droppable:
            facets.remove(rng.choice(droppable))
    elif perturb == "add":
        n = max(max(f) for f in facets) + 1
        facets.append(rng.sample(range(n), min(n, rng.randint(2, 3))))
    x = from_facets(facets)
    flag = is_flag(x)
    assert flag[0] == is_flag_exhaustive(x.n_vertices, x.facets)
    assert flag == simplicial._clique_check(from_facets(facets))
    # x is a join when its facets are exactly the unions of one facet of
    # each induced factor, mapped back through the relabeling tables
    parts = complement_components_networkx(x.n_vertices, x.faces(1))
    induced = [induced_subcomplex(x, p) for p in parts]
    unions = {tuple(sorted(table[v] for (_, table), f in zip(induced, pick) for v in f))
              for pick in itertools.product(*(sub.facets for sub, _ in induced))}
    is_join = len(parts) > 1 and unions == set(x.facets)
    assert join_factors(x) == ([sub for sub, _ in induced] if is_join else [x])


def test_facet_missing_a_part_is_not_a_join():
    # the complement splits into {0, 1, 3} and {2}, and the facet (1, 3)
    # misses the second part; counted as an empty restriction, the four
    # facets would look like 4 x 1 facets of a join
    x = from_facets([[0, 2], [1, 2], [1, 3], [2, 3]])
    assert complement_components(x) == [(0, 1, 3), (2,)]
    assert is_flag(x) == (False, (1, 2, 3))


def _interleaved_join(a, b):
    """join(a, b) with its vertices shuffled, so that the parts interleave."""
    x = join(a, b)
    perm = list(range(x.n_vertices))
    random.Random(0).shuffle(perm)
    return from_facets([[perm[v] for v in f] for f in x.facets])


def test_flag_check_of_a_join_searches_only_its_factors(monkeypatch):
    original = simplicial._maximal_cliques
    # a flag join, and joins with non-flag factors, whose witness must be the
    # one the whole-complex search finds
    for build in (lambda: join(fixture("rp2_flag"), fixture("moore_flag", q=3)),
                  lambda: join(fixture("moore", q=3), fixture("moore", q=5)),
                  lambda: _interleaved_join(fixture("rp2_flag"), fixture("moore", q=3))):
        expected = simplicial._clique_check(build())
        x = build()
        sizes = sorted(f.n_vertices for f in join_factors(build()))
        searched = []
        monkeypatch.setattr(simplicial, "_maximal_cliques",
                            lambda x: searched.append(x.n_vertices) or original(x))
        assert is_flag(x) == expected
        assert sorted(searched) == sizes
        calls = []
        monkeypatch.setattr(simplicial, "complement_components", calls.append)
        monkeypatch.setattr(simplicial, "induced_subcomplex", lambda *args: calls.append(args))
        assert sorted(f.n_vertices for f in join_factors(x)) == sizes
        assert calls == []
        monkeypatch.undo()


def _count_complement_searches(monkeypatch):
    """The complexes complement_components is called on, through every
    module of the package that binds the name."""
    original = simplicial.complement_components
    calls = []

    def counted(x):
        calls.append(x)
        return original(x)

    for name, module in list(sys.modules.items()):
        if ((name == "raag" or name.startswith("raag."))
                and getattr(module, "complement_components", None) is original):
            monkeypatch.setattr(module, "complement_components", counted)
    return calls


def test_every_route_searches_the_complement_once_per_complex(monkeypatch):
    calls = _count_complement_searches(monkeypatch)
    joins = (lambda: fixture("cycle", n=4), lambda: fixture("octahedron"))
    cases = [(lambda x: not is_flag(x)[0],
              lambda: join(fixture("moore", q=3), fixture("moore", q=5)))]
    cases += [(route, build) for build in joins for route in (
        SimplicialComplex.f_vector, homology_summary,
        lambda x: growth_experiment(x, [standard_spec(x, 2)], 2))]
    for route, build in cases:
        x = build()
        calls.clear()
        assert route(x)
        assert [c is x for c in calls] == [True]
    for build in joins:
        # h(V) keeps one row on the factor of each join part, read off the
        # one search
        L = build()
        calls.clear()
        support_betti(L, -1, 2)
        rows = [F._rows[2] for F in join_factors(L)]
        assert [list(r) for r in rows] == [[(1 << len(part)) - 1] for part in join_parts(L)]
        assert len(rows) > 1 and [c is L for c in calls] == [True]


def test_join_parts_follow_the_factors():
    c4 = fixture("cycle", n=4)
    assert join_parts(c4) == [(0, 2), (1, 3)]
    x = _interleaved_join(fixture("rp2_flag"), fixture("moore", q=3))
    for factor, part in zip(join_factors(x), join_parts(x)):
        assert induced_subcomplex(x, part) == (factor, part)
    hollow = fixture("simplex_boundary", n=2)  # three points, but not their join
    assert join_factors(hollow) == [hollow]
    assert join_parts(hollow) == [(0, 1, 2)]
    assert join_parts(from_facets([])) == [()]


def test_induced_subcomplex_relabels():
    x = fixture("octahedron")
    sub, table = induced_subcomplex(x, [0, 1, 2, 3])
    assert sub.n_vertices == 4
    assert table == (0, 1, 2, 3)
    assert sub.f_vector() == (4, 4)  # induced 4-cycle of the octahedron


# -- serialization -----------------------------------------------------------------


def test_complex_json_round_trip():
    for name in ("rp2_6", "octahedron", "dunce"):
        x = fixture(name)
        data = complex_to_json_dict(x)
        y = complex_from_json_dict(json.loads(json.dumps(data)))
        assert x == y
        assert y.name == x.name


def test_complex_json_rejects_malformed():
    with pytest.raises(MalformedComplexError):
        complex_from_json_dict({"vertices": 2})
    with pytest.raises(MalformedComplexError):
        complex_from_json_dict({"facets": [[0, "a"]]})
    with pytest.raises(MalformedComplexError):
        complex_from_json_dict({"facets": [[0, 1]], "vertices": 5})


def test_complex_json_rejects_a_boolean_vertex_count():
    # JSON true is a Python bool, which is an int
    with pytest.raises(MalformedComplexError, match="vertex count"):
        complex_from_json_dict({"facets": [[0]], "vertices": True})
