"""Exact linear algebra and homology engine against dense reference oracles."""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (all_faces, boundary_matrix, brute_betti_fp, brute_homology,
                     complement_components_networkx, dense_snf, rank_fraction, rank_gf,
                     random_facets)

import raag.homology as homology_module
from raag.errors import CorruptComplexError
from raag.fixtures import fixture, standard_fixtures
from raag.homology import (ChainComplexZ, HomologySummary, betti_Fp, betti_table,
                           cube_chain_complex, flag_reduced_summary, homology_Z, homology_summary,
                           join_homology_kunneth, simplicial_chain_complex,
                           top_cohomology_nonzero, uct_betti_fp)
from raag.linalg import SparseIntMatrix, is_prime, rank_mod_p, smith_normal_form
from raag.simplicial import (barycentric_subdivision, flag_completion, from_facets,
                             is_flag, join, join_factors)


def _unaugmented(x):
    """The chain complex of x without degree 0, the empty simplex: its
    homology is unreduced."""
    cc = simplicial_chain_complex(x)
    return ChainComplexZ(cc.dims[1:], {i - 1: cc.boundary(i) for i in range(2, cc.top + 1)})


def _betti_fp(x, p, reduced=False):
    """Reduced degree k is degree k + 1 of the chain complex of x."""
    if reduced:
        return betti_Fp(simplicial_chain_complex(x), p)[1:]
    return betti_Fp(_unaugmented(x), p)


matrix_strategy = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    min_size=1, max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


# -- Smith normal form and ranks --------------------------------------------------


# no entry is +-1, so the column reduction sets every column aside and the
# Smith phase meets the whole block
nonunit_matrix_strategy = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.lists(st.sampled_from([0, 2, -2, 3, -3, 4, 6, 9, 12]),
                 min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrix_strategy, nonunit_matrix_strategy))
def test_snf_matches_dense_oracle(rows):
    got = smith_normal_form(SparseIntMatrix.from_dense(rows))
    assert [d for d in got.diagonal if d] == dense_snf(rows)
    assert len(got.diagonal) == min(len(rows), len(rows[0]))


@settings(max_examples=60, deadline=None)
@given(matrix_strategy, st.randoms(use_true_random=False))
def test_snf_invariant_under_permutation(rows, rng):
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    shuffled = [[row[j] for j in cols] for row in rows]
    rng.shuffle(shuffled)
    a = smith_normal_form(SparseIntMatrix.from_dense(rows))
    b = smith_normal_form(SparseIntMatrix.from_dense(shuffled))
    assert a.diagonal == b.diagonal


def test_snf_divisibility_chain_frozen_cases():
    assert smith_normal_form(SparseIntMatrix.from_dense([[2, 0], [0, 3]])).diagonal == (1, 6)
    assert smith_normal_form(
        SparseIntMatrix.from_dense([[2, 0, 0], [0, 6, 0], [0, 0, 4]])).diagonal == (2, 2, 12)
    assert smith_normal_form(SparseIntMatrix.from_dense([[0, 0], [0, 0]])).diagonal == (0, 0)
    # 40 columns of up to three entries from {-4, -2, 2, 3, 4, 6}: every
    # column is set aside, and a pivot rule that lets the entries grow does
    # not finish here
    rng = random.Random(5)
    entries = {}
    for c in range(40):
        for _ in range(3):
            entries[(rng.randrange(40), c)] = rng.choice([-4, -2, 2, 3, 4, 6])
    got = smith_normal_form(SparseIntMatrix(40, 40, entries))
    assert got.diagonal == (1,) * 17 + (2,) * 14 + (6, 12, 12, 36, 36, 36, 72) + (0, 0)
    assert got.unit_rows == frozenset()


@settings(max_examples=80, deadline=None)
@given(matrix_strategy, st.sampled_from([2, 3, 5, 7, 11]))
def test_ranks_match_oracles(rows, p):
    m = SparseIntMatrix.from_dense(rows)
    assert smith_normal_form(m).rank == rank_fraction([[Fraction(v) for v in r] for r in rows])
    assert rank_mod_p(m, p) == rank_gf(rows, p)


def test_rank_mod_p_rejects_bad_modulus():
    m = SparseIntMatrix.from_dense([[1]])
    with pytest.raises(ValueError):
        rank_mod_p(m, 1)


# -- homology goldens ---------------------------------------------------------------


def test_rp2_homology():
    h = homology_summary(fixture("rp2_6"))
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())
    assert _betti_fp(fixture("rp2_6"), 2) == (1, 1, 1)
    assert _betti_fp(fixture("rp2_6"), 3) == (1, 0, 0)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_moore_space_homology(q):
    x = fixture("moore", q=q)
    h = homology_summary(x)
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (q,), ())
    b, t = brute_homology(list(x.facets), reduced=False)
    assert tuple(b) == h.betti and tuple(tuple(ts) for ts in t) == h.torsion


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_homology(n):
    h = homology_summary(fixture("simplex_boundary", n=n), reduced=True)
    expected = [0] * n
    expected[n - 1] = 1
    assert h.betti == tuple(expected)
    assert all(not t for t in h.torsion)


def test_reduced_vs_unreduced():
    x = fixture("discrete", n=3)
    assert homology_summary(x).betti == (3,)
    assert homology_summary(x, reduced=True).betti == (2,)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_homology_matches_brute_oracle(seed, reduced):
    facets = random_facets(random.Random(seed), max_vertices=6)
    x = from_facets(facets)
    h = homology_summary(x, reduced=reduced)
    b, t = brute_homology(facets, reduced=reduced)
    assert h.betti == tuple(b)
    assert h.torsion == tuple(tuple(ts) for ts in t)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5, 7]), st.booleans())
def test_betti_fp_matches_brute_oracle(seed, p, reduced):
    facets = random_facets(random.Random(seed), max_vertices=6)
    assert _betti_fp(from_facets(facets), p, reduced=reduced) == tuple(
        brute_betti_fp(facets, p, reduced=reduced))


# -- universal coefficients ---------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 7), st.sampled_from([2, 3, 5, 7]))
def test_universal_coefficients_identity(seed, p):
    facets = random_facets(random.Random(seed), max_vertices=7)
    x = from_facets(facets)
    h = homology_summary(x, reduced=True)
    assert _betti_fp(x, p, reduced=True) == uct_betti_fp(h.betti, h.torsion, p)


def test_uct_frozen_case():
    h = homology_summary(fixture("rp2_6"), reduced=True)
    assert uct_betti_fp(h.betti, h.torsion, 2) == (0, 1, 1)
    assert uct_betti_fp(h.betti, h.torsion, 3) == (0, 0, 0)


# -- join formula -------------------------------------------------------------------


def test_join_kunneth_matches_direct_small():
    # the chain complex of a join is the tensor product of its factors', as built
    pairs = [
        (fixture("discrete", n=2), fixture("discrete", n=2)),
        (fixture("cycle", n=4), fixture("discrete", n=2)),
        (fixture("rp2_6"), fixture("moore", q=3)),
        (fixture("moore", q=2), fixture("moore", q=2)),
    ]
    for a, b in pairs:
        ha = homology_Z(simplicial_chain_complex(a))
        hb = homology_Z(simplicial_chain_complex(b))
        direct = homology_Z(simplicial_chain_complex(join(a, b)))
        derived = join_homology_kunneth(ha, hb)
        assert derived.betti == direct.betti
        assert derived.torsion == direct.torsion


def test_empty_complex_is_the_kunneth_unit():
    unit = homology_Z(simplicial_chain_complex(from_facets([])))
    assert (unit.betti, unit.torsion) == ((1,), ((),))
    for x in (from_facets([]), fixture("discrete", n=2), fixture("rp2_6"), fixture("moore", q=3)):
        h = homology_Z(simplicial_chain_complex(x))
        for derived in (join_homology_kunneth(unit, h), join_homology_kunneth(h, unit)):
            assert (derived.betti, derived.torsion) == (h.betti, h.torsion)


def _summary(betti, torsion):
    """The homology of a chain complex as built, as homology_Z gives it."""
    return HomologySummary(reduced=False, betti=betti, torsion=torsion)


@st.composite
def torsion_summaries(draw):
    """Summaries in degrees 0..2 with at least one torsion coefficient."""
    n = draw(st.integers(1, 3))
    betti = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    orders = st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), max_size=2)
    torsion = [sorted(draw(orders)) for _ in range(n)]
    if not any(torsion):
        torsion[draw(st.integers(0, n - 1))] = [draw(st.sampled_from([2, 4, 6]))]
    return _summary(betti, tuple(tuple(t) for t in torsion))


def _kunneth_bags(h1, h2):
    """Per degree of the tensor product, the orders of the cyclic groups of
    the Kunneth formula: Z^r (x) Z/t = (Z/t)^r, Z/s (x) Z/t = Tor(Z/s, Z/t)
    = Z/gcd(s, t)."""
    bags = []
    for k in range(h1.dim + h2.dim + 1):
        bag = []
        for i, j in itertools.product(range(h1.dim + 1), range(h2.dim + 1)):
            (r1, t1), (r2, t2) = h1.group(i), h2.group(j)
            gcds = [math.gcd(s, t) for s in t1 for t in t2]
            if i + j == k:
                bag += list(t1) * r2 + list(t2) * r1 + gcds
            elif i + j == k - 1:
                bag += gcds
        bags.append([t for t in bag if t > 1])
    return bags


@settings(max_examples=150, deadline=None)
@given(torsion_summaries(), torsion_summaries())
# the empty simplex and a point added to RP^2 and to the Moore spaces: Z/2 +
# Z/3 merges to Z/6, Z/2 + Z/4 stays, and two Moore spaces meet in Z/4 (x)
# Z/6 and Tor(Z/4, Z/6)
@example(_summary((0, 1, 0, 0), ((), (), (2,), ())), _summary((0, 1, 0, 0), ((), (), (3,), ())))
@example(_summary((0, 1, 0, 0), ((), (), (2,), ())), _summary((0, 1, 0, 0), ((), (), (4,), ())))
@example(_summary((0, 0, 0, 0), ((), (), (4,), ())), _summary((0, 0, 0, 0), ((), (), (6,), ())))
def test_kunneth_torsion_matches_dense_snf_of_the_bag(h1, h2):
    got = join_homology_kunneth(h1, h2)
    bags = _kunneth_bags(h1, h2)
    want = tuple(tuple(d for d in dense_snf([[t if a == b else 0 for b in range(len(bag))]
                                              for a, t in enumerate(bag)]) if d > 1)
                 for bag in bags)
    assert got.torsion == want
    assert got.betti == tuple(sum(h1.group(i)[0] * h2.group(k - i)[0] for i in range(k + 1))
                              for k in range(len(bags)))


@pytest.mark.parametrize("q1,q2,betti,torsion", [
    (2, 3, 1, ((), (), (), (6,), (), (), ())),
    (2, 4, 1, ((), (), (), (2, 4), (2,), (2,), ())),
    (4, 6, 0, ((), (), (), (), (2,), (2,), ())),
])
def test_kunneth_torsion_frozen_cases(q1, q2, betti, torsion):
    h1 = _summary((0, betti, 0, 0), ((), (), (q1,), ()))
    h2 = _summary((0, betti, 0, 0), ((), (), (q2,), ()))
    assert join_homology_kunneth(h1, h2).torsion == torsion


def test_flag_reduced_summary_uses_factors():
    for name, primes in (("octahedron", (2,)), ("rp2_flag", (2,)), ("moore_flag(3)", (2, 3))):
        x = standard_fixtures()[name]
        direct = homology_Z(simplicial_chain_complex(x))
        got = flag_reduced_summary(x)
        assert got.betti == direct.betti[1:] and got.torsion == direct.torsion[1:]
        # checked F_p tables at 2 and every torsion prime, as whole-complex ranks give them
        assert got.primes() == primes
        for p in primes:
            assert got.betti_fp(p) == _betti_fp(x, p, reduced=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 6), st.booleans(), st.booleans())
def test_split_route_matches_brute_oracles_on_joins(n_factors, seed, reduced, non_flag):
    # whole facet lists through the dense oracles, against the factor route;
    # a non-flag last factor, whose complement is connected, is split off whole
    rng = random.Random(seed)
    size = {1: 7, 2: 4, 3: 3}[n_factors]
    factors = [_random_flag(rng, size) for _ in range(n_factors)]
    if non_flag:
        factors[-1] = _random_unsplit_non_flag(rng, max(size - 1, 4))
    x = functools.reduce(join, factors)
    assert len(join_factors(x)) == sum(
        len(complement_components_networkx(f.n_vertices, f.faces(1))) for f in factors)
    facets = list(x.facets)
    h = homology_summary(x, reduced=reduced, primes=[2, 3])
    betti, torsion = brute_homology(facets, reduced=reduced)
    assert h.reduced == reduced
    assert h.betti == tuple(betti) and h.torsion == tuple(tuple(t) for t in torsion)
    for p in (2, 3):
        assert h.betti_fp(p) == tuple(brute_betti_fp(facets, p, reduced=reduced))
        assert betti_table(x, p) == tuple(brute_betti_fp(facets, p, reduced=True))


def test_non_flag_complex_is_its_own_factor():
    x = fixture("simplex_boundary", n=2)  # hollow triangle: not the join of three points
    assert join_factors(x) == [x]
    h = homology_summary(x, primes=None)
    assert h.betti == (1, 1) and h.betti_mod_p == ((2, (1, 1)),)


def test_empty_complex_has_no_degrees():
    x = from_facets([])
    for reduced in (False, True):
        h = homology_summary(x, reduced=reduced, primes=[2])
        assert h.betti == () and h.torsion == () and h.betti_fp(2) == ()
    assert betti_table(x, 3) == ()


def test_factor_uct_mismatch_raises(monkeypatch):
    x = join(fixture("rp2_flag"), fixture("discrete", n=2))
    real = homology_module.betti_Fp

    def off_by_one(cc, p):
        row = real(cc, p)
        return row if cc.dims[0] == 2 else (row[0] + 1,) + row[1:]

    monkeypatch.setattr(homology_module, "betti_Fp", off_by_one)
    with pytest.raises(CorruptComplexError, match="universal-coefficient"):
        homology_summary(x, primes=[3])


# -- top cohomology criterion --------------------------------------------------------


def test_top_cohomology_detail_cases():
    nz, detail = top_cohomology_nonzero(fixture("octahedron"))
    assert nz and detail["condition"] == "top_betti_positive"
    assert detail["all_primes"] is True

    nz, detail = top_cohomology_nonzero(fixture("rp2_flag"))
    assert nz and detail["condition"] == "torsion_below_top"
    assert detail["witness_prime"] == 2 and detail["all_primes"] is False

    nz, detail = top_cohomology_nonzero(fixture("moore_flag", q=3))
    assert nz and detail["witness_prime"] == 3

    nz, detail = top_cohomology_nonzero(fixture("path", n=4))
    assert not nz and detail["condition"] == "vanishes"

    nz, _ = top_cohomology_nonzero(from_facets([[0]]))
    assert not nz  # a point has trivial reduced cohomology

    nz, _ = top_cohomology_nonzero(fixture("discrete", n=2))
    assert nz  # two points: reduced H^0 is nonzero


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_top_cohomology_agrees_with_prime_scan(seed):
    facets = random_facets(random.Random(seed), max_vertices=6)
    x = from_facets(facets)
    d = x.dim
    nz, detail = top_cohomology_nonzero(x)
    primes = [int(p) for p in detail["checked_primes"]]
    scan = any(_betti_fp(x, p, reduced=True)[d] > 0 for p in primes)
    assert nz == scan
    assert detail["cross_check"] == "matrix_rank"  # the only route, whatever the size


def _random_flag(rng, max_vertices):
    n = rng.randint(1, max_vertices)
    edges = [list(e) for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
    return flag_completion(from_facets([[v] for v in range(n)] + edges))


def _random_non_flag(rng, max_vertices=6):
    # a flag complex with every face containing the triangle {0, 1, 2} split
    # into its three faces without it: the edges of {0, 1, 2} stay, it goes
    n = rng.randint(3, max_vertices)
    edges = [list(e) for e in itertools.combinations(range(n), 2)
             if e in ((0, 1), (0, 2), (1, 2)) or rng.random() < 0.6]
    facets = []
    for f in flag_completion(from_facets([[v] for v in range(n)] + edges)).facets:
        if {0, 1, 2} <= set(f):
            facets.extend([u for u in f if u != v] for v in (0, 1, 2))
        else:
            facets.append(list(f))
    return from_facets(facets)


def _random_unsplit_non_flag(rng, max_vertices):
    # 4 vertices at least: the complement of a hollow triangle is edgeless
    while True:
        x = _random_non_flag(rng, max_vertices)
        if len(complement_components_networkx(x.n_vertices, x.faces(1))) == 1:
            return x


def _random_join(rng):
    x = _random_flag(rng, 4)
    for _ in range(rng.randint(1, 2)):
        x = join(x, _random_flag(rng, 4))
    return x


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["flag", "join", "non_flag"]), st.integers(0, 10 ** 6))
def test_top_scan_matches_whole_complex_ranks(kind, seed):
    rng = random.Random(seed)
    x = {"flag": lambda: _random_flag(rng, 7), "join": lambda: _random_join(rng),
         "non_flag": lambda: _random_non_flag(rng)}[kind]()
    assert is_flag(x)[0] == (kind != "non_flag")
    _, detail = top_cohomology_nonzero(x)
    for p, value in detail["checked_primes"].items():
        assert value == _betti_fp(x, int(p), reduced=True)[x.dim], (kind, p)


@pytest.mark.parametrize("build, checked", [
    (lambda: join(fixture("rp2_flag"), fixture("moore_flag", q=3)), {"2": 0}),
    (lambda: barycentric_subdivision(
        barycentric_subdivision(fixture("rp2_flag")).complex).complex, {"2": 1}),
])
def test_top_scan_on_large_complexes_matches_universal_coefficients(build, checked):
    x = build()
    h = flag_reduced_summary(x)
    _, detail = top_cohomology_nonzero(x, h)
    assert detail["checked_primes"] == checked
    assert checked == {p: uct_betti_fp(h.betti, h.torsion, int(p))[x.dim] for p in checked}
    assert detail["cross_check"] == "matrix_rank"


def test_top_cohomology_rejects_unreduced_summary():
    x = fixture("octahedron")
    with pytest.raises(ValueError):
        top_cohomology_nonzero(x, homology_summary(x))


def test_top_cohomology_accepts_precomputed_summary():
    x = fixture("rp2_flag")
    h = homology_summary(x, reduced=True, primes=None)
    nz, detail = top_cohomology_nonzero(x, h)
    assert nz and detail["witness_prime"] == 2


@pytest.mark.parametrize("name, primes", [("rp2_flag", ()), ("moore_flag(3)", (2,))])
def test_top_cohomology_rejects_summary_without_scan_tables(name, primes):
    # the scan reads the summary's checked tables; it computes none of its own
    x = standard_fixtures()[name]
    with pytest.raises(ValueError, match="mod-p tables"):
        top_cohomology_nonzero(x, homology_summary(x, reduced=True, primes=primes))


# -- summaries: derived tables and serialization --------------------------------------


def test_summary_json_round_trip():
    h = homology_summary(fixture("rp2_6"), reduced=True, primes=[2, 3])
    assert h.betti_mod_p == ((2, (0, 1, 1)), (3, (0, 0, 0)))
    data = json.loads(json.dumps(h.to_json_dict()))
    assert HomologySummary.from_json_dict(data) == h


# -- validation ------------------------------------------------------------------------


def test_chain_complex_validates_boundary_squared():
    _unaugmented(fixture("rp2_6")).validate()
    # sign error in an edge boundary: composition d1 . d2 no longer vanishes
    d1 = SparseIntMatrix.from_dense([[1, 1, 0], [1, 0, 1], [0, -1, -1]])
    d2 = SparseIntMatrix.from_dense([[1], [-1], [1]])
    bad = ChainComplexZ((3, 3, 1), {1: d1, 2: d2})
    with pytest.raises(CorruptComplexError):
        bad.validate()


def test_chain_complex_shape_mismatch_rejected():
    with pytest.raises(CorruptComplexError):
        ChainComplexZ((2, 2), {1: SparseIntMatrix.from_dense([[1], [1]])})
    with pytest.raises(CorruptComplexError, match="boundary 1 is 1x3, expected 1x2"):
        ChainComplexZ((1, 2), {1: SparseIntMatrix.from_dense([[1, 1, 1]])})
    # a boundary is given in degrees 1..top and in no other: not out of
    # degree 0, nor above the top, nor on a complex with no degrees
    d1 = SparseIntMatrix.from_dense([[-1, -1], [1, 1]])
    with pytest.raises(CorruptComplexError, match="degree 0, outside 1..1"):
        ChainComplexZ((2, 2), {0: SparseIntMatrix.from_dense([[1, 1]]), 1: d1})
    with pytest.raises(CorruptComplexError, match="degree 2, outside 1..0"):
        ChainComplexZ((2,), {2: SparseIntMatrix(3, 3, {(0, 0): 1})})
    with pytest.raises(CorruptComplexError, match="degree 0, outside 1..-1"):
        ChainComplexZ((), {0: SparseIntMatrix(1, 5, {})})
    # with no degrees both reductions have nothing to reduce
    empty = ChainComplexZ((), {})
    assert homology_Z(empty) == HomologySummary(reduced=False, betti=(), torsion=())
    assert betti_Fp(empty, 2) == ()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6).map(lambda seed: random_facets(random.Random(seed))))
@example([])
@example([(0,)])
def test_chain_complex_matches_dense_boundary_oracle(facets):
    # the one builder, at matrix level: degree k + 1 holds the k-faces and
    # degree 0 the empty simplex, so boundary(1) is the augmentation
    cc = simplicial_chain_complex(from_facets(facets))
    faces = all_faces(facets)
    dim = max(faces, default=-1)
    assert cc.dims == (1,) + tuple(len(faces[k]) for k in range(dim + 1))
    for k in range(dim + 2):
        m = cc.boundary(k + 1)
        dense = [[m.entries.get((r, c), 0) for c in range(m.cols)] for r in range(m.rows)]
        assert dense == boundary_matrix(faces, k, augmented=(k == 0)), k


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6).map(lambda seed: random_facets(random.Random(seed))),
       st.one_of(st.just(0), st.just(-1), st.integers(1, 2 ** 7 - 1)))
@example([(0, 1, 2), (1, 3)], 0b0101)
def test_support_complex_matches_dense_boundary_oracle(facets, T):
    # cube_chain_complex reads the entries simplicial_chain_complex wrote in
    # the order of the directions of x.faces(i - 1); the support complex of T
    # keeps the deletions of a vertex in T, and T = -1 keeps them all
    x = from_facets(facets)
    cc = cube_chain_complex(x, T)
    whole = simplicial_chain_complex(x)
    full = (1 << x.n_vertices) - 1
    faces = all_faces(facets)
    assert cc.dims == whole.dims
    for k in range(max(faces, default=-1) + 2):
        m = cc.boundary(k + 1)
        dense = [[m.entries.get((r, c), 0) for c in range(m.cols)] for r in range(m.rows)]
        lower = faces.get(k - 1, [()])
        want = [[v if all(T >> u & 1 for u in set(faces[k][c]) - set(lower[r])) else 0
                 for c, v in enumerate(row)]
                for r, row in enumerate(boundary_matrix(faces, k, augmented=(k == 0)))]
        assert dense == want, k
        if T & full == full:
            assert m == whole.boundary(k + 1)
    # every mask gives a new complex, never the cached chain complex; a mask
    # with every vertex of x gives its entries
    assert cc is not whole
    for U in (-1, full):
        again = cube_chain_complex(x, U)
        assert again is not whole
        assert all(again.boundary(i) == whole.boundary(i) for i in range(1, whole.top + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6).map(lambda seed: random_facets(random.Random(seed))),
       st.lists(st.one_of(st.just(-1), st.integers(0, 2 ** 7 - 1)), min_size=1, max_size=4))
def test_a_list_of_masks_is_the_block_diagonal_sum(facets, masks):
    # block b of the complex of a list of masks is the support complex of
    # masks[b], its cells after those of the blocks before it
    x = from_facets(facets)
    one = [cube_chain_complex(x, T) for T in masks]
    cc = cube_chain_complex(x, masks)
    assert cc.dims == tuple(len(masks) * d for d in one[0].dims)
    for i in range(1, cc.top + 1):
        want = {}
        for b, part in enumerate(one):
            m = part.boundary(i)
            want.update({(b * m.rows + r, b * m.cols + c): v for (r, c), v in m.entries.items()})
        assert cc.boundary(i).entries == want, i
    # never the cached chain complex, even for one mask with every vertex of
    # x, whose entries it has
    whole = simplicial_chain_complex(x)
    assert cc is not whole
    full = (1 << x.n_vertices) - 1
    if len(masks) == 1 and masks[0] & full == full:
        assert all(cc.boundary(i) == whole.boundary(i) for i in range(1, cc.top + 1))


def test_boundary_one_is_the_augmentation():
    # RP^2: reduced H = (0, Z/2, 0), one degree up in the chain complex of
    # RP^2, whose degree 0 is the empty simplex; unreduced H = (Z, Z/2, 0)
    cc = simplicial_chain_complex(fixture("rp2_6"))
    n = cc.dims[1]
    assert cc.dims[0] == 1
    assert cc.boundary(1) == SparseIntMatrix(1, n, {(0, j): 1 for j in range(n)})
    assert cc.boundary(0) == SparseIntMatrix(0, 1, {})
    h = homology_Z(cc)
    assert (h.reduced, h.betti, h.torsion) == (False, (0, 0, 0, 0), ((), (), (2,), ()))
    assert betti_Fp(cc, 2) == (0, 0, 1, 1)
    plain = _unaugmented(fixture("rp2_6"))
    assert plain.boundary(0) == SparseIntMatrix(0, n, {})
    h = homology_Z(plain)
    assert (h.reduced, h.betti, h.torsion) == (False, (1, 0, 0), ((), (2,), ()))
    assert betti_Fp(plain, 2) == (1, 1, 1)


def test_is_prime_matches_trial_division_and_refuses_two_to_the_64():
    small = [n for n in range(-5, 5000)
             if n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(-5, 5000) if is_prime(n)] == small
    # 2^61 - 1 and 2^64 - 59 are prime; the others are composites that pass
    # Miller-Rabin to several small bases (a Carmichael number, strong
    # pseudoprimes to bases 2..7 and to bases 2..23, and 2^64 - 1)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)
    for n in (561, 3215031751, 3825123056546413051, 2 ** 64 - 1):
        assert not is_prime(n)
    with pytest.raises(ValueError, match="2\\^64"):
        is_prime(2 ** 64)


# -- chain complex cache -----------------------------------------------------------------


@pytest.mark.parametrize("name,kwargs", [("rp2_flag", {}), ("moore_flag", dict(q=3)),
                                         ("cycle", dict(n=5)), ("simplex", dict(n=0))])
def test_chain_complex_is_cached_per_complex(name, kwargs):
    base = fixture(name, **kwargs)
    x = from_facets(base.facets, n_vertices=base.n_vertices)
    cc = simplicial_chain_complex(x)
    assert simplicial_chain_complex(x) is cc
    # an equal complex gets its own build, with the same boundaries
    fresh = simplicial_chain_complex(from_facets(base.facets, n_vertices=base.n_vertices))
    assert fresh is not cc
    assert fresh.dims == cc.dims
    for i in range(-1, cc.top + 2):
        assert fresh.boundary(i).entries == cc.boundary(i).entries
        assert (fresh.boundary(i).rows, fresh.boundary(i).cols) == \
            (cc.boundary(i).rows, cc.boundary(i).cols)
