"""Cover chain complexes from integer deck indices against the tuple-based
build, the Smith-form index against enumeration, the cover size budget and
the column-wise boundary check."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import cover_boundaries_tuples, deck_group_bfs

import raag.models as models
from raag.errors import CorruptComplexError, CoverSpecError
from raag.fixtures import fixture
from raag.homology import ChainComplexZ, simplicial_chain_complex
from raag.linalg import SparseIntMatrix
from raag.models import CubeComplex, FiniteQuotientSpec, finite_cover, standard_spec
from raag.simplicial import flag_completion, from_facets


@st.composite
def flag_complexes(draw, max_vertices=6):
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return flag_completion(from_facets([[v] for v in range(n)] + [list(e) for e in edges]))


@st.composite
def specs(draw, n, max_coords=3, max_modulus=4):
    """Specs whose images come from a pool of at most three vectors plus
    zero, so repeated and zero images are common."""
    moduli = tuple(draw(st.lists(st.integers(1, max_modulus), max_size=max_coords)))
    vector = st.tuples(*(st.integers(0, k - 1) for k in moduli))
    pool = draw(st.lists(vector, min_size=1, max_size=3)) + [tuple(0 for _ in moduli)]
    images = tuple(draw(st.sampled_from(pool)) for _ in range(n))
    return FiniteQuotientSpec(moduli=moduli, images=images)


@st.composite
def covers(draw):
    L = draw(flag_complexes())
    return L, draw(specs(L.n_vertices))


@settings(max_examples=80, deadline=None)
@given(covers())
def test_cover_build_matches_tuple_oracle(case):
    L, spec = case
    cover = finite_cover(L, spec)
    cc = cover.chain_complex()
    dims, boundaries = cover_boundaries_tuples(list(L.facets), spec.moduli, spec.images)
    assert list(cover.deck) == deck_group_bfs(spec.moduli, spec.images)
    assert list(cc.dims) == dims
    for i, entries in boundaries.items():
        m = cc.boundary(i)
        assert (m.rows, m.cols) == (dims[i - 1], dims[i])
        assert m.entries == entries
    cc.validate()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: specs(n, max_coords=4, max_modulus=6)))
def test_index_from_smith_form_matches_enumeration(spec):
    assert spec.index == len(deck_group_bfs(spec.moduli, spec.images))


def _corrupted(cc: ChainComplexZ, i: int, k: int) -> ChainComplexZ:
    """cc with d_{i+1}[k, c] raised by one in its last column c (c > 0)."""
    upper = cc.boundary(i + 1)
    entries = dict(upper.entries)
    c = upper.cols - 1
    entries[(k, c)] = entries.get((k, c), 0) + 1
    bnd = {j: cc.boundary(j) for j in range(1, cc.top + 1)}
    bnd[i + 1] = SparseIntMatrix(upper.rows, upper.cols, entries)
    return ChainComplexZ(cc.dims, bnd, augmented=cc.augmented)


@settings(max_examples=60, deadline=None)
@given(covers())
def test_validate_rejects_corruption_outside_first_column(case):
    # adding 1 at (k, c) of d_{i+1} adds column k of d_i to column c of the
    # product, which is nonzero when that column of d_i is
    L, spec = case
    cc = finite_cover(L, spec).chain_complex()
    found = [(i, k) for i in range(1, cc.top) if cc.boundary(i + 1).cols > 1
             for (_, k) in cc.boundary(i).entries]
    assume(found)
    i, k = max(found)
    with pytest.raises(CorruptComplexError):
        _corrupted(cc, i, k).validate()


def test_validate_rejects_corruption_in_augmented_simplicial_complex():
    cc = simplicial_chain_complex(from_facets([[0, 1, 2], [1, 2, 3]]), augmented=True)
    cc.validate()
    for i, k in ((0, 0), (1, 4)):
        with pytest.raises(CorruptComplexError):
            _corrupted(cc, i, k).validate()


def test_cover_size_budget(monkeypatch):
    # discrete(2) at k = 3: index 9, 9 vertices and 18 edges
    x = fixture("discrete", n=2)
    monkeypatch.setattr(models, "MAX_COVER_CELLS", 27)
    assert finite_cover(x, standard_spec(x, 3)).cell_counts() == (9, 18)
    monkeypatch.setattr(models, "MAX_COVER_CELLS", 26)
    with pytest.raises(CoverSpecError, match="27 cells"):
        finite_cover(x, standard_spec(x, 3))


def test_cover_checks_enumeration_against_smith_form(monkeypatch):
    x = fixture("discrete", n=2)
    monkeypatch.setattr(FiniteQuotientSpec, "index", property(lambda spec: 5))
    with pytest.raises(CorruptComplexError, match="Smith normal form"):
        CubeComplex(x, standard_spec(x, 2))
