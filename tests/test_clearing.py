"""Clearing across boundaries: rank over F_p by column reduction in
betti_Fp, and Smith normal forms over Z in homology_Z, against dense
elimination of every boundary with no clearing."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import brute_betti_fp, brute_homology, dense_snf, random_facets, rank_gf

from raag.fixtures import fixture
from raag.homology import ChainComplexZ, betti_Fp, homology_Z, simplicial_chain_complex
from raag.linalg import SparseIntMatrix, pivot_rows_mod_p, smith_normal_form
from raag.models import CubeComplex, FiniteQuotientSpec
from raag.simplicial import flag_completion, from_facets


def _random_flag(rng: random.Random, max_vertices: int = 6):
    n = rng.randint(1, max_vertices)
    edges = [list(e) for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
    return flag_completion(from_facets([[v] for v in range(n)] + edges))


def _random_spec(rng: random.Random, n: int) -> FiniteQuotientSpec:
    moduli = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    images = tuple(tuple(rng.randrange(k) for k in moduli) for _ in range(n))
    return FiniteQuotientSpec(moduli=moduli, images=images)


def _dense(m: SparseIntMatrix):
    out = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        out[r][c] = v
    return out


def _dense_betti(cc, p):
    """Betti numbers from dense ranks of each boundary, no clearing."""
    ranks = {i: rank_gf(_dense(cc.boundary(i)), p) for i in range(1, cc.top + 1)}
    return tuple(cc.dims[i] - ranks.get(i, 0) - ranks.get(i + 1, 0)
                 for i in range(cc.top + 1))


def _without_columns(m: SparseIntMatrix, skip):
    return [[v for j, v in enumerate(row) if j not in skip] for row in _dense(m)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]))
def test_betti_fp_with_clearing_matches_dense_ranks(seed, p):
    rng = random.Random(seed)
    L = _random_flag(rng)
    cc = simplicial_chain_complex(L)  # degree k + 1 is reduced degree k
    assert betti_Fp(cc, p) == _dense_betti(cc, p)
    assert betti_Fp(cc, p) == (0,) + tuple(brute_betti_fp(list(L.facets), p, reduced=True))
    cover = CubeComplex(L, _random_spec(rng, L.n_vertices)).chain_complex()
    assert betti_Fp(cover, p) == _dense_betti(cover, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]))
def test_skipped_columns_match_dense_rank_without_them(seed, p):
    rng = random.Random(seed)
    L = _random_flag(rng)
    cover = CubeComplex(L, _random_spec(rng, L.n_vertices)).chain_complex()
    for cc in (simplicial_chain_complex(L), cover):
        for i in range(1, cc.top + 1):
            m = cc.boundary(i)
            if m.cols == 0:
                continue
            skip = set(rng.sample(range(m.cols), rng.randint(1, m.cols)))
            pivots = pivot_rows_mod_p(m, p, skip)
            assert len(pivots) == rank_gf(_without_columns(m, skip), p)
            assert pivots <= set(range(m.rows))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=1, max_size=6),
       st.sets(st.integers(0, 3), min_size=1), st.sampled_from([2, 3, 5]))
def test_skip_on_unstructured_matrices(rows, skip, p):
    m = SparseIntMatrix.from_dense(rows)
    assert len(pivot_rows_mod_p(m, p, skip)) == rank_gf(_without_columns(m, skip), p)


# -- clearing over Z -------------------------------------------------------------


def _dense_homology(cc):
    """(betti, torsion) from dense Smith normal forms of every boundary, no clearing."""
    snfs = {i: dense_snf(_dense(cc.boundary(i))) for i in range(1, cc.top + 1)}
    betti = tuple(cc.dims[i] - len(snfs.get(i, ())) - len(snfs.get(i + 1, ()))
                  for i in range(cc.top + 1))
    torsion = tuple(tuple(d for d in snfs.get(i + 1, ()) if d > 1) for i in range(cc.top + 1))
    return betti, torsion


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_homology_z_with_clearing_matches_brute_oracle(seed, reduced):
    rng = random.Random(seed)
    facets = random_facets(rng, max_vertices=7)
    b, t = brute_homology(facets, reduced=reduced)
    assert _homology(from_facets(facets), reduced) == (tuple(b), tuple(tuple(ts) for ts in t))
    # and a cube complex: a Z/2 cover, against dense Smith forms of its boundaries
    L = _random_flag(rng, max_vertices=4)
    spec = FiniteQuotientSpec(
        moduli=(2,), images=tuple((rng.randrange(2),) for _ in range(L.n_vertices)))
    cover = CubeComplex(L, spec).chain_complex()
    h = homology_Z(cover)
    assert (h.betti, h.torsion) == _dense_homology(cover)


def _chain(dims, dense):
    return ChainComplexZ(dims, {i: SparseIntMatrix.from_dense(rows)
                                for i, rows in dense.items()})


def _homology(x, reduced):
    """(betti, torsion) of x from homology_Z: reduced degree k is degree
    k + 1 of the chain complex of x, and without degree 0, the empty
    simplex, that complex has the unreduced homology."""
    cc = simplicial_chain_complex(x)
    if reduced:
        h = homology_Z(cc)
        return h.betti[1:], h.torsion[1:]
    h = homology_Z(ChainComplexZ(cc.dims[1:], {i - 1: cc.boundary(i)
                                               for i in range(2, cc.top + 1)}))
    return h.betti, h.torsion


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_moore_flag_torsion(q):
    x = fixture("moore_flag", q=q)
    for reduced in (False, True):
        assert _homology(x, reduced) == (((0 if reduced else 1), 0, 0), ((), (q,), ()))


def test_rp2_flag_torsion():
    assert _homology(fixture("rp2_flag"), reduced=False) == ((1, 0, 0), ((), (2,), ()))


def test_phase_two_pivot_rows_are_not_cleared():
    # Z --2--> Z: the only pivot is not a unit, so no row may be cleared
    cc = _chain((1, 1), {1: [[2]]})
    assert smith_normal_form(cc.boundary(1)).unit_rows == frozenset()
    h = homology_Z(cc)
    assert h.betti == (0, 0) and h.torsion == ((2,), ())
    # Z --(3, -2)--> Z^2 --(2 3)--> Z is exact.  d_2 has no unit: its column
    # is set aside with lowest entry -2 on row 1, and d_1 without column 1 is
    # (2), which would make H_0 = Z/2
    cc = _chain((1, 2, 1), {1: [[2, 3]], 2: [[3], [-2]]})
    assert smith_normal_form(cc.boundary(2)).unit_rows == frozenset()
    h = homology_Z(cc)
    assert h.betti == (0, 0, 0) and h.torsion == ((), (), ())


def _unimodular_on(rows, unit_rows, cols):
    """Whether some columns of cols span a minor of det +-1 on unit_rows."""
    return any(dense_snf([[rows[r][c] for c in chosen] for r in sorted(unit_rows)])
               == [1] * len(unit_rows)
               for chosen in itertools.combinations(cols, len(unit_rows)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), min_size=1, max_size=5),
       st.sets(st.integers(0, 4)))
# columns set aside by the reduction over Z: a unit above a non-unit lowest entry
@example([[1, 1, 0, 0, 0], [0, 2, 4, 0, 0]], {0})
# column 1 reaches the non-unit lowest entry 2 only after reduction by column 0,
# and column 2 then makes a pivot on a row where column 1 is nonzero
@example([[0, 1, 1, 0, 0], [0, 2, 0, 0, 0], [1, 1, 0, 0, 0]], set())
# the index matrix of FiniteQuotientSpec(moduli=(4, 2), images=((2, 1), (2, 1))):
# diag(moduli) above the images, which are not independent
@example([[4, 0, 0, 0, 0], [0, 2, 0, 0, 0], [2, 1, 0, 0, 0], [2, 1, 0, 0, 0]], set())
def test_smith_skip_matches_dense_snf_without_columns(rows, skip):
    m = SparseIntMatrix.from_dense(rows)
    snf = smith_normal_form(m, skip)
    kept = [c for c in range(5) if c not in skip]
    expected = dense_snf(_without_columns(m, skip)) if kept else []
    assert [d for d in snf.diagonal if d] == expected
    assert len(snf.diagonal) == min(len(rows), len(kept))
    assert snf.unit_rows <= set(range(len(rows)))
    assert _unimodular_on(rows, snf.unit_rows, kept)
