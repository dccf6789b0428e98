"""Finite quotient specs and cube complex covers."""

import pytest

from raag.errors import CoverSpecError, NotFlagError
from raag.fixtures import fixture, standard_fixtures
from raag.homology import betti_Fp, cube_chain_complex, homology_Z, simplicial_chain_complex
from raag.models import CubeComplex, FiniteQuotientSpec, standard_spec
from raag.simplicial import from_facets, is_flag


# -- finite quotient specs -----------------------------------------------------------


def test_spec_normalizes_residues():
    spec = FiniteQuotientSpec(moduli=(4,), images=((5,), (-1,)))
    assert spec.images == ((1,), (3,))


def test_spec_rejects_bad_data():
    with pytest.raises(CoverSpecError):
        FiniteQuotientSpec(moduli=(0,), images=((0,),))
    with pytest.raises(CoverSpecError):
        FiniteQuotientSpec(moduli=(2, 2), images=((1,),))


@pytest.mark.parametrize("moduli, images, bad", [
    ((3,), ((1.5,),) * 4, "residues"),                 # an index of 2.0
    ((2.0,), ((1,),) * 4, "moduli"),                   # a TypeError in growth_experiment
    ((True,), ((1,),) * 4, "moduli"),                  # a modulus_vector of True
    ((3,), ((True,), (1,), (0,), (2,)), "residues"),
])
def test_spec_rejects_floats_and_bools(moduli, images, bad):
    with pytest.raises(CoverSpecError, match=f"{bad} must be") as caught:
        FiniteQuotientSpec(moduli, images)
    assert caught.value.exit_code == 14


def test_deck_group_is_generated_subgroup():
    spec = FiniteQuotientSpec(moduli=(4,), images=((1,), (2,)))
    assert spec.index == 4
    sub = FiniteQuotientSpec(moduli=(4,), images=((2,), (2,)))
    assert sub.deck_group() == ((0,), (2,))
    assert sub.index == 2
    assert spec.label() == "4"


def test_standard_and_trivial_specs():
    c4 = fixture("cycle", n=4)
    spec = standard_spec(c4, 3)
    assert spec.moduli == (3, 3, 3, 3)
    assert spec.index == 81
    triv = FiniteQuotientSpec(moduli=(), images=((),) * 4)
    assert triv.index == 1
    assert triv.label() == "1"
    with pytest.raises(CoverSpecError):
        standard_spec(c4, 0)


# -- Salvetti model --------------------------------------------------------------------


def _chi(dims):
    return sum((-1) ** i * c for i, c in enumerate(dims))


def _salvetti(x):
    # The Salvetti complex is the support complex of T = {} that growth
    # reads: one copy of the cube cells and no unit direction.
    return cube_chain_complex(x)


def test_salvetti_cell_counts():
    assert _salvetti(fixture("simplex", n=0)).dims == (1, 1)
    assert _salvetti(fixture("simplex", n=1)).dims == (1, 2, 1)
    assert _salvetti(fixture("cycle", n=4)).dims == (1, 4, 4)


def test_salvetti_boundaries_vanish():
    cc = _salvetti(fixture("cycle", n=4))
    cc.validate()
    for i in range(1, cc.top + 1):
        assert cc.boundary(i).nnz == 0
    # consequence: betti numbers are exactly the cell counts
    assert homology_Z(cc).betti == cc.dims


def test_salvetti_betti_equals_face_counts_on_flag_fixtures():
    # every boundary of the Salvetti complex is zero, so its betti numbers
    # are the cell counts (1, f_0, ..., f_d)
    for name, x in standard_fixtures().items():
        if x.n_vertices > 6 or not is_flag(x)[0]:
            continue
        cc = _salvetti(x)
        assert cc.dims == (1,) + x.f_vector(), name
        cc.validate()
        assert all(cc.boundary(i).nnz == 0 for i in range(1, cc.top + 1)), name
        h = homology_Z(cc)
        assert h.betti == cc.dims, name
        assert all(not t for t in h.torsion), name


def test_cube_complex_requires_flag_base():
    x = fixture("simplex_boundary", n=2)
    with pytest.raises(NotFlagError):
        CubeComplex(x, standard_spec(x, 2))


def test_cube_complex_rejects_image_count_mismatch():
    c4 = fixture("cycle", n=4)
    with pytest.raises(CoverSpecError):
        CubeComplex(c4, FiniteQuotientSpec(moduli=(2,), images=((1,),)))


# -- finite covers ----------------------------------------------------------------------


def test_free_group_cover_betti():
    # two generators, deck group (Z/3)^2: a classifying graph with 9 vertices
    # and 18 edges, so b_1 = index * (n - 1) + 1 = 10
    x = fixture("discrete", n=2)
    cover = CubeComplex(x, standard_spec(x, 3))
    assert cover.chain_complex().dims == (9, 18)
    h = homology_Z(cover.chain_complex())
    assert h.betti == (1, 10)


def test_torus_cover_betti():
    edge = fixture("simplex", n=1)
    cover = CubeComplex(edge, standard_spec(edge, 2))
    assert cover.index == 4
    h = homology_Z(cover.chain_complex())
    assert h.betti == (1, 2, 1)
    assert all(not t for t in h.torsion)


def test_square_cover_betti_golden():
    c4 = fixture("cycle", n=4)
    cover = CubeComplex(c4, standard_spec(c4, 2))
    assert cover.index == 16
    h = homology_Z(cover.chain_complex())
    assert h.betti == (1, 10, 25)


def test_trivial_spec_cover_is_base_model():
    c4 = fixture("cycle", n=4)
    cover = CubeComplex(c4, FiniteQuotientSpec(moduli=(), images=((),) * 4)).chain_complex()
    base = _salvetti(c4)
    assert cover.dims == base.dims
    assert all(cover.boundary(i).entries == base.boundary(i).entries == {}
               for i in range(1, base.top + 1))


def test_cover_euler_characteristic_multiplicative():
    for name, x in standard_fixtures().items():
        if x.n_vertices > 5 or not is_flag(x)[0]:
            continue
        base = _salvetti(x)
        cover = CubeComplex(x, standard_spec(x, 2))
        assert _chi(cover.chain_complex().dims) == cover.index * _chi(base.dims), name


def test_cover_fp_alternating_sum_consistency():
    # The F_p Euler characteristic of a cover equals index * (1 - chi(L))
    # regardless of p, and the same number is minus the alternating sum of
    # the reduced F_p betti numbers of L: the alternating sum over the chain
    # complex of L, whose degree k + 1 is reduced degree k.  This ties the
    # cover homology to the reference values the growth experiments report.
    for name, x in standard_fixtures().items():
        if x.n_vertices > 5 or not is_flag(x)[0]:
            continue
        cover = CubeComplex(x, standard_spec(x, 2))
        cc = cover.chain_complex()
        chi = 1 - x.euler_characteristic()
        ref = simplicial_chain_complex(x)
        for p in (2, 3):
            b = betti_Fp(cc, p)
            total = sum((-1) ** i * v for i, v in enumerate(b))
            assert total == cover.index * chi, (name, p)
            shifted = betti_Fp(ref, p)
            assert sum((-1) ** j * v for j, v in enumerate(shifted)) == chi, (name, p)


def test_intermediate_cover_counts_divide():
    edge = fixture("simplex", n=1)
    small = CubeComplex(edge, FiniteQuotientSpec((2, 2), ((1, 0), (0, 1))))
    big = CubeComplex(edge, FiniteQuotientSpec((4, 4), ((1, 0), (0, 1))))
    ratio = big.index // small.index
    assert big.chain_complex().dims == tuple(ratio * c for c in small.chain_complex().dims)


def test_cover_boundary_squared_validates():
    c4 = fixture("cycle", n=4)
    CubeComplex(c4, standard_spec(c4, 2)).chain_complex().validate()
    x = from_facets([[0, 1, 2]])
    CubeComplex(x, standard_spec(x, 2)).chain_complex().validate()


def test_cover_json_dict():
    # the index, cell counts and Euler characteristic a cover reports
    c4 = fixture("cycle", n=4)
    cover = CubeComplex(c4, standard_spec(c4, 2))
    assert cover.index == 16
    dims = cover.chain_complex().dims
    assert dims == (16, 64, 64)
    assert _chi(dims) == 16
