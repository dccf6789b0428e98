"""Rank over F_p by column reduction, and the clearing across boundaries in
betti_Fp, against dense Gaussian elimination of every boundary with no
clearing."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from oracles import brute_betti_fp, rank_gf

from raag.homology import betti_Fp, simplicial_chain_complex
from raag.linalg import SparseIntMatrix, pivot_rows_mod_p
from raag.models import FiniteQuotientSpec, finite_cover
from raag.simplicial import flag_completion, from_facets


def _random_flag(rng: random.Random):
    n = rng.randint(1, 6)
    edges = [list(e) for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
    return flag_completion(from_facets([[v] for v in range(n)] + edges))


def _random_spec(rng: random.Random, n: int) -> FiniteQuotientSpec:
    moduli = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    images = tuple(tuple(rng.randrange(k) for k in moduli) for _ in range(n))
    return FiniteQuotientSpec(moduli=moduli, images=images)


def _dense_betti(cc, p):
    """Betti numbers from dense ranks of each boundary, no clearing."""
    lo = 0 if cc.augmented else 1
    ranks = {i: rank_gf(cc.boundary(i).to_dense(), p) for i in range(lo, cc.top + 1)}
    return tuple(cc.dims[i] - ranks.get(i, 0) - ranks.get(i + 1, 0)
                 for i in range(cc.top + 1))


def _without_columns(m: SparseIntMatrix, skip):
    return [[v for j, v in enumerate(row) if j not in skip] for row in m.to_dense()]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]))
def test_betti_fp_with_clearing_matches_dense_ranks(seed, p):
    rng = random.Random(seed)
    L = _random_flag(rng)
    reduced = simplicial_chain_complex(L, augmented=True)
    assert betti_Fp(reduced, p) == _dense_betti(reduced, p)
    assert betti_Fp(reduced, p) == tuple(brute_betti_fp(list(L.facets), p, reduced=True))
    cover = finite_cover(L, _random_spec(rng, L.n_vertices)).chain_complex()
    assert betti_Fp(cover, p) == _dense_betti(cover, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]))
def test_skipped_columns_match_dense_rank_without_them(seed, p):
    rng = random.Random(seed)
    L = _random_flag(rng)
    cover = finite_cover(L, _random_spec(rng, L.n_vertices)).chain_complex()
    for cc in (simplicial_chain_complex(L, augmented=True), cover):
        lo = 0 if cc.augmented else 1
        for i in range(lo, cc.top + 1):
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
