"""Finite quotient specs and cube complex covers."""

import pytest

from raag.errors import CoverSpecError, NotFlagError
from raag.fixtures import fixture, standard_fixtures
from raag.homology import betti_Fp, homology_Z, simplicial_chain_complex
from raag.models import (CubeComplex, FiniteQuotientSpec, finite_cover,
                         salvetti_complex, standard_spec, trivial_spec)
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
    triv = trivial_spec(c4)
    assert triv.index == 1
    assert triv.label() == "1"
    with pytest.raises(CoverSpecError):
        standard_spec(c4, 0)


# -- Salvetti model --------------------------------------------------------------------


def test_salvetti_cell_counts():
    assert salvetti_complex(fixture("simplex", n=0)).cell_counts() == (1, 1)
    assert salvetti_complex(fixture("simplex", n=1)).cell_counts() == (1, 2, 1)
    assert salvetti_complex(fixture("cycle", n=4)).cell_counts() == (1, 4, 4)


def test_salvetti_boundaries_vanish():
    s = salvetti_complex(fixture("cycle", n=4))
    cc = s.chain_complex()
    cc.validate()
    for i in range(1, cc.top + 1):
        assert cc.boundary(i).nnz == 0
    # consequence: betti numbers are exactly the cell counts
    assert homology_Z(cc).betti == s.cell_counts()


def test_salvetti_betti_equals_face_counts_on_flag_fixtures():
    for name, x in standard_fixtures().items():
        if x.n_vertices > 6 or not is_flag(x)[0]:
            continue
        s = salvetti_complex(x)
        h = homology_Z(s.chain_complex())
        expected = (1,) + x.f_vector()
        assert h.betti == expected, name
        assert all(not t for t in h.torsion), name


def test_cube_complex_requires_flag_base():
    with pytest.raises(NotFlagError):
        salvetti_complex(fixture("simplex_boundary", n=2))


def test_cube_complex_rejects_image_count_mismatch():
    c4 = fixture("cycle", n=4)
    with pytest.raises(CoverSpecError):
        CubeComplex(c4, FiniteQuotientSpec(moduli=(2,), images=((1,),)))


# -- finite covers ----------------------------------------------------------------------


def test_free_group_cover_betti():
    # two generators, deck group (Z/3)^2: a classifying graph with 9 vertices
    # and 18 edges, so b_1 = index * (n - 1) + 1 = 10
    x = fixture("discrete", n=2)
    cover = finite_cover(x, standard_spec(x, 3))
    assert cover.cell_counts() == (9, 18)
    h = homology_Z(cover.chain_complex())
    assert h.betti == (1, 10)


def test_torus_cover_betti():
    edge = fixture("simplex", n=1)
    cover = finite_cover(edge, standard_spec(edge, 2))
    assert cover.index == 4
    h = homology_Z(cover.chain_complex())
    assert h.betti == (1, 2, 1)
    assert all(not t for t in h.torsion)


def test_square_cover_betti_golden():
    c4 = fixture("cycle", n=4)
    cover = finite_cover(c4, standard_spec(c4, 2))
    assert cover.index == 16
    h = homology_Z(cover.chain_complex())
    assert h.betti == (1, 10, 25)


def test_trivial_spec_cover_is_base_model():
    c4 = fixture("cycle", n=4)
    assert finite_cover(c4, trivial_spec(c4)).cell_counts() == \
        salvetti_complex(c4).cell_counts()


def test_cover_euler_characteristic_multiplicative():
    for name, x in standard_fixtures().items():
        if x.n_vertices > 5 or not is_flag(x)[0]:
            continue
        base = salvetti_complex(x)
        cover = finite_cover(x, standard_spec(x, 2))
        assert cover.euler_characteristic() == \
            cover.index * base.euler_characteristic(), name


def test_cover_fp_alternating_sum_consistency():
    # The F_p Euler characteristic of a cover equals index * (1 - chi(L))
    # regardless of p, and the same number is minus the alternating sum of
    # the reduced F_p betti numbers of L: the alternating sum over the chain
    # complex of L, whose degree k + 1 is reduced degree k.  This ties the
    # cover homology to the reference values the growth experiments report.
    for name, x in standard_fixtures().items():
        if x.n_vertices > 5 or not is_flag(x)[0]:
            continue
        cover = finite_cover(x, standard_spec(x, 2))
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
    small = finite_cover(edge, FiniteQuotientSpec((2, 2), ((1, 0), (0, 1))))
    big = finite_cover(edge, FiniteQuotientSpec((4, 4), ((1, 0), (0, 1))))
    ratio = big.index // small.index
    assert big.cell_counts() == tuple(ratio * c for c in small.cell_counts())


def test_cover_boundary_squared_validates():
    c4 = fixture("cycle", n=4)
    finite_cover(c4, standard_spec(c4, 2)).chain_complex().validate()
    x = from_facets([[0, 1, 2]])
    finite_cover(x, standard_spec(x, 2)).chain_complex().validate()


def test_cover_json_dict():
    c4 = fixture("cycle", n=4)
    data = finite_cover(c4, standard_spec(c4, 2)).to_json_dict()
    assert data["index"] == 16
    assert data["cells"] == {"0": 16, "1": 64, "2": 64}
    assert data["euler_characteristic"] == 16
