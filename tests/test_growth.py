"""Cover growth experiments: exact families, CSV output, caveat discipline."""

import gc
import types
from fractions import Fraction

import pytest

import raag.growth as growth
import raag.homology as homology
import raag.models as models
import raag.simplicial as simplicial
from raag.cli import main
from raag.errors import CorruptComplexError, CoverSpecError, NotFlagError
from raag.fixtures import fixture
from raag.growth import CAVEAT, growth_experiment
from raag.homology import betti_Fp, homology_summary
from raag.models import CubeComplex, FiniteQuotientSpec, standard_spec
from raag.simplicial import from_facets, join_factors


def test_rejects_bad_inputs():
    c4 = fixture("cycle", n=4)
    with pytest.raises(NotFlagError):
        growth_experiment(fixture("rp2_6"), [standard_spec(fixture("rp2_6"), 2)], 2)
    with pytest.raises(CoverSpecError):
        growth_experiment(c4, [standard_spec(c4, 2)], 4)
    with pytest.raises(CoverSpecError):
        growth_experiment(c4, [], 2)
    with pytest.raises(CoverSpecError):
        growth_experiment(c4, [standard_spec(c4, 3), standard_spec(c4, 2)], 2)
    # independent images, one generator short: refused on either route
    for spec in (standard_spec(fixture("cycle", n=3), 2), _shared(2)):
        short = FiniteQuotientSpec(moduli=spec.moduli, images=spec.images[:3])
        with pytest.raises(CoverSpecError, match="assigns 3 generators, base has 4"):
            growth_experiment(c4, [short], 2)


def test_prime_must_be_an_int():
    # 3.0 would reach pow() in the mod-p reduction, and 2.0 would pass as 2
    c4 = fixture("cycle", n=4)
    for prime in (3.0, 2.0, True):
        with pytest.raises(CoverSpecError, match="integer|not prime") as caught:
            growth_experiment(c4, [standard_spec(c4, 3)], prime)
        assert caught.value.exit_code == 14


def test_free_group_family_is_exact():
    x = fixture("discrete", n=2)
    series = growth_experiment(x, [standard_spec(x, k) for k in (2, 3, 4)], 2)
    assert series.derivable_family == "free group, b_1 from Euler characteristic"
    assert [c.index for c in series.covers] == [4, 9, 16]
    assert [c.betti for c in series.covers] == [(1, 5), (1, 10), (1, 17)]
    assert "closed form (free group, b_1 from Euler characteristic): EXACT" \
        in series.render_report()
    assert series.reference == (0, 1)
    # b_1 / index approaches the reference b~_0 = 1 from above
    assert [c.ratio(1) for c in series.covers] == \
        [Fraction(5, 4), Fraction(10, 9), Fraction(17, 16)]


def test_torus_family_is_exact():
    edge = fixture("simplex", n=1)
    series = growth_experiment(edge, [standard_spec(edge, k) for k in (2, 3)], 3)
    assert series.derivable_family == "free abelian group, torus covers"
    assert all(c.betti == (1, 2, 1) for c in series.covers)
    assert "closed form (free abelian group, torus covers): EXACT" in series.render_report()
    # every ratio tends to zero: the group is amenable, no growth anywhere
    assert series.reference == (0, 0, 0)


def test_product_family_with_block_split_spec():
    # join of two discrete pairs = 4-cycle; one coordinate block per side
    c4 = fixture("cycle", n=4)
    specs = [
        FiniteQuotientSpec(moduli=(k, k), images=((1, 0), (0, 1), (1, 0), (0, 1)))
        for k in (2, 3)
    ]
    series = growth_experiment(c4, specs, 2)
    assert series.derivable_family == "product of two free groups, Kunneth"
    # each side restricts to a deck group of order k, so the side rows are
    # (1, k + 1) and the cover betti numbers are their convolution
    assert [c.index for c in series.covers] == [4, 9]
    assert growth._derivable_family(c4, specs)[1] == [(1, 6, 9), (1, 8, 16)]
    assert [c.betti for c in series.covers] == [(1, 6, 9), (1, 8, 16)]


def test_standard_spec_on_square_is_product():
    c4 = fixture("cycle", n=4)
    series = growth_experiment(c4, [standard_spec(c4, k) for k in (2, 3)], 2)
    assert series.derivable_family == "product of two free groups, Kunneth"
    assert [c.index for c in series.covers] == [16, 81]
    assert [c.betti for c in series.covers] == [(1, 10, 25), (1, 20, 100)]
    assert "closed form (product of two free groups, Kunneth): EXACT" in series.render_report()
    # b_2 / index = ((k^2 + 1) / k^2)^2 exceeds the reference b~_1 = 1 by
    # exactly (2 k^2 + 1) / k^4
    for k, cov in zip((2, 3), series.covers):
        assert cov.ratio(2) - 1 == Fraction(2 * k * k + 1, k ** 4)


def test_a_row_that_misses_its_closed_form_fails_the_run(monkeypatch, capsys):
    # C_4's row at k = 2 off by one in b_0 and in b_1 keeps its Euler
    # characteristic but misses the product closed form (1, 10, 25): the run
    # exits 15 with no CSV, and no factor keeps rows at that prime
    original = growth.cover_betti

    def off_by_one(*args):
        b = original(*args)
        return (b[0] + 1, b[1] + 1) + b[2:]

    monkeypatch.setattr(growth, "cover_betti", off_by_one)
    c4 = fixture("cycle", n=4)
    with pytest.raises(CorruptComplexError,
                       match=r"\[2, 11, 25\] of the cover 2x2x2x2 miss the closed form "
                             r"\[1, 10, 25\] \(product of two free groups, Kunneth\)") as caught:
        growth_experiment(c4, [standard_spec(c4, 2)], 2)
    assert caught.value.exit_code == 15
    assert all(2 not in F._rows for F in join_factors(c4))
    code = main(["growth", "--fixture", "cycle", "--n", "4", "--prime", "2", "--moduli", "2"])
    out, err = capsys.readouterr()
    assert code == 15 and out == ""
    assert "miss the closed form" in err and "MISMATCH" not in err


def test_shared_coordinate_disables_product_form():
    c4 = fixture("cycle", n=4)
    spec = FiniteQuotientSpec(moduli=(2,), images=((1,), (1,), (1,), (1,)))
    series = growth_experiment(c4, [spec], 2)
    assert series.derivable_family is None
    assert growth._derivable_family(c4, [spec]) == (None, [None])
    assert "closed form (" not in series.render_report()
    assert series.covers[0].index == 2


def test_csv_is_exact_and_floatless():
    x = fixture("discrete", n=2)
    series = growth_experiment(x, [standard_spec(x, 2)], 2)
    csv_text = series.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0].rstrip("\r") == \
        "modulus_vector,index,degree,betti,ratio_num,ratio_den,reference"
    assert lines[1].rstrip("\r") == "2x2,4,0,1,1,4,0"
    assert lines[2].rstrip("\r") == "2x2,4,1,5,5,4,1"
    assert "." not in csv_text
    assert "e" not in csv_text.lower().replace("modulus_vector,index,degree,betti,ratio_num,ratio_den,reference", "")


def test_report_always_carries_caveat():
    x = fixture("discrete", n=2)
    exact = growth_experiment(x, [standard_spec(x, 2)], 2)
    assert CAVEAT in exact.render_report()
    assert "EXACT" in exact.render_report()
    c4 = fixture("cycle", n=4)
    spec = FiniteQuotientSpec(moduli=(2,), images=((1,), (1,), (1,), (1,)))
    plain = growth_experiment(c4, [spec], 2)
    assert CAVEAT in plain.render_report()
    assert "EXACT" not in plain.render_report()


def _shared(k):
    """Every generator of the 4-cycle to 1 in Z/k: images not independent."""
    return FiniteQuotientSpec(moduli=(k,), images=((1,),) * 4)


def test_mixed_routes_keep_spec_order(monkeypatch):
    # indices 2, 16, 32, 81: split, support rows, split, support rows;
    # RAAG_THREADS is no longer read, so even an invalid value is ignored
    c4 = fixture("cycle", n=4)
    specs = [_shared(2), standard_spec(c4, 2), _shared(32), standard_spec(c4, 3)]
    monkeypatch.setenv("RAAG_THREADS", "not-a-number")
    series = growth_experiment(c4, specs, 2)
    assert [(c.moduli_label, c.index) for c in series.covers] == \
        [("2", 2), ("2x2x2x2", 16), ("32", 32), ("3x3x3x3", 81)]
    assert [c.betti for c in series.covers] == \
        [betti_Fp(CubeComplex(c4, spec).chain_complex(), 2) for spec in specs]
    assert [c.betti for c in series.covers[1::2]] == [(1, 10, 25), (1, 20, 100)]


def test_a_table_that_failed_a_check_is_not_kept(monkeypatch):
    # poisoned rows are refused by the Euler characteristic check, on a new
    # complex and on one whose factors already keep rows at p = 2 (of vertex
    # 0 only, and h(V)); C_4's two factors are one object, whose rows are
    # dropped once; once the poison is gone the same object gives the rows
    # of a new complex
    partial = FiniteQuotientSpec(moduli=(2,), images=((1,), (0,), (0,), (0,)))
    for warm in (False, True):
        c4 = fixture("cycle", n=4)
        if warm:
            growth_experiment(c4, [partial], 2)
        with monkeypatch.context() as m:
            m.setattr(growth, "betti_Fp", lambda cc, p, blocks:
                      [(1,) + row[1:] for row in betti_Fp(cc, p, blocks)])
            with pytest.raises(CorruptComplexError, match="Euler characteristic"):
                growth_experiment(c4, [standard_spec(c4, 2)], 2)
        assert all(F._rows == {} for F in join_factors(c4))
        for spec in (standard_spec(c4, 2), partial):
            assert growth_experiment(c4, [spec], 2).covers == \
                growth_experiment(from_facets(c4.facets), [spec], 2).covers
        assert growth_experiment(c4, [standard_spec(c4, 2)], 2).covers[0].betti == (1, 10, 25)


def test_equal_index_sweep_computes_each_entry_once_per_prime(monkeypatch):
    # every divisibility chain of index <= 60 on discrete(3), as coordinate
    # specs, and two scrambled specs, one call each, on one object: each
    # support complex (a mask of a batch, one copy) is asked for once per
    # prime, its row kept on the complex; T = V, the row of the reference
    # column, is one of them
    counts = {"entries": 0, "full": 0}
    x = fixture("discrete", n=3)
    real = growth.cube_chain_complex

    def counted(F, units=0, shift=()):
        if not isinstance(units, int):  # a batch of support complexes
            counts["entries"] += len(units)
            counts["full"] += units.count(0b111)
        return real(F, units, shift)

    monkeypatch.setattr(growth, "cube_chain_complex", counted)
    chains = [(a, b, c) for c in range(1, 61) for b in range(1, c + 1) for a in range(1, b + 1)
              if c % b == 0 and b % a == 0 and a * b * c <= 60]
    coordinate = [FiniteQuotientSpec(moduli=m, images=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
                  for m in chains]
    scrambled = [FiniteQuotientSpec(moduli=(4, 8), images=((1, 3), (2, 1), (0, 1))),
                 FiniteQuotientSpec(moduli=(6, 6), images=((1, 1), (2, 3), (1, 5)))]
    for p in (2, 3):
        for spec in coordinate + scrambled:
            series = growth_experiment(x, [spec], p)
            assert series.covers[0].betti == (1, 2 * spec.index + 1)
    assert counts == {"entries": 16, "full": 2}
    assert [len(x._rows[p]) for p in (2, 3)] == [8, 8]


def test_row_batches_hold_at_most_the_cap(monkeypatch):
    # cycle(12) at modulus 2 reads 4,096 rows of 25 cells, the row of all
    # vertices among them, in batches of ROW_BATCH_CELLS // 25 rows; a cap
    # below one complex makes every batch one complex, of 11 cells on cycle(5)
    built = []
    real = growth.cube_chain_complex

    def counted(x, units, shift=()):
        cc = real(x, units, shift)
        built.append((len(units), sum(cc.dims)))
        return cc

    monkeypatch.setattr(growth, "cube_chain_complex", counted)
    c12 = fixture("cycle", n=12)
    series = growth_experiment(c12, [standard_spec(c12, 2)], 2)
    assert series.covers[0].betti == (1, 14338, 18433)
    assert len(c12._rows[2]) == 4096
    per = growth.ROW_BATCH_CELLS // 25
    sizes = [n for n, _ in built]
    assert sizes == [per] * (len(sizes) - 1) + [4096 - per * (len(sizes) - 1)]
    assert 0 < sizes[-1] <= per
    assert all(cells <= growth.ROW_BATCH_CELLS for _, cells in built)
    built.clear()
    monkeypatch.setattr(growth, "ROW_BATCH_CELLS", 10)
    c5 = fixture("cycle", n=5)
    growth_experiment(c5, [standard_spec(c5, 2)], 3)
    assert built == [(1, 11)] * 32


def _reachable(root):
    """Every object reachable from root through gc.get_referents, not
    descending into classes, modules or functions."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


def test_a_second_prime_builds_no_chain_complex(monkeypatch):
    # a complex's join factors keep their rows, which hold no complex, and
    # every complex is read off the factors' cached chain complexes: after
    # the first prime neither the second prime nor the homology of the
    # complex writes a boundary entry, on a complex that does not split
    # (cycle) and on a join (octahedron), whose own chain complex only the
    # P-cover complexes need
    writes = []
    monkeypatch.setattr(homology, "cube_facets",
                        lambda x, i, cube_facets=homology.cube_facets:
                        writes.append(i) or cube_facets(x, i))

    def second_prime_writes_nothing(x):
        spec = FiniteQuotientSpec(moduli=(6,), images=tuple(((v + 1) % 6,) for v in range(x.n_vertices)))
        growth_experiment(x, [spec], 2)
        assert writes
        writes.clear()
        growth_experiment(x, [spec], 3)
        homology_summary(x)
        assert writes == []
        for F in join_factors(x):
            assert sorted(F._rows) == [2, 3]
            assert not any(isinstance(obj, simplicial.SimplicialComplex)
                           for obj in _reachable(F._rows))

    for build in (lambda: fixture("cycle", n=5), lambda: fixture("octahedron")):
        gc.collect()
        second_prime_writes_nothing(build())
        # no cycle ran through the complex, so dropping it left no garbage
        assert gc.collect() == 0


def test_p_part_enumerated_once_per_spec_without_independent_images(monkeypatch):
    # the ordering check takes the index from the Smith normal form, specs
    # with independent images are read off the support rows, and every other
    # spec enumerates the deck group of its p-part once
    calls = []
    original = FiniteQuotientSpec.cayley_table

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(FiniteQuotientSpec, "cayley_table", counted)
    x = fixture("discrete", n=2)
    specs = [standard_spec(x, k) for k in (2, 3, 4)]
    series = growth_experiment(x, specs, 2)
    assert [c.index for c in series.covers] == [4, 9, 16]
    assert series.derivable_family == "free group, b_1 from Euler characteristic"
    assert calls == []
    c4 = fixture("cycle", n=4)
    specs = [_shared(3), standard_spec(c4, 2), _shared(24)]
    growth_experiment(c4, specs, 2)
    assert calls == [FiniteQuotientSpec(moduli=(), images=((),) * 4), _shared(8)]


def test_cover_bound_counts_the_cells_each_route_reads(monkeypatch):
    # the 4-cycle's Salvetti complex has 1 + 8 cells, and _shared(k), whose
    # images are not independent, is split into Sylow parts at its index k;
    # standard_spec(c4, 3) has index 81 but reads, for each of the two join
    # factors S^0, the 2^2 support rows of the subsets of its part,
    # of 1 + 2 cells each
    c4 = fixture("cycle", n=4)
    monkeypatch.setattr(models, "MAX_COVER_CELLS", 144)
    assert growth_experiment(c4, [_shared(16)], 2).covers[0].index == 16
    with pytest.raises(CoverSpecError, match="index 17 needs 153 cells"):
        growth_experiment(c4, [_shared(17)], 2)
    monkeypatch.setattr(models, "MAX_COVER_CELLS", 24)
    assert growth_experiment(c4, [standard_spec(c4, 3)], 2).covers[0].index == 81
    monkeypatch.setattr(models, "MAX_COVER_CELLS", 23)
    with pytest.raises(CoverSpecError, match="index 81 needs 24 cells"):
        growth_experiment(c4, [standard_spec(c4, 3)], 2)


def test_flag_check_runs_once_per_experiment(monkeypatch):
    # C_4 is checked through its two join factors, which are one object
    # (S^0): one check of each complex, and one clique search, of S^0
    checks, searches = [], []
    for name, calls in (("_flag_check", checks), ("_clique_check", searches)):
        monkeypatch.setattr(simplicial, name, lambda x, f=getattr(simplicial, name), calls=calls:
                            calls.append(x) or f(x))
    c4 = fixture("cycle", n=4)
    c4 = from_facets(c4.facets)  # a fresh complex, whose flag check is not cached
    growth_experiment(c4, [_shared(2), standard_spec(c4, 2), _shared(32)], 2)
    s0, other = join_factors(c4)
    assert s0 is other
    assert [id(x) for x in checks] == [id(c4), id(s0)]
    assert [id(x) for x in searches] == [id(s0)]


def test_reference_column_uses_reduced_mod_p_betti():
    x = fixture("rp2_flag")
    spec = FiniteQuotientSpec(moduli=(2,), images=((1,),) * x.n_vertices)
    series = growth_experiment(x, [spec], 2)
    # reduced betti of the flag complex over F_2 is (0, 1, 1)
    assert series.reference == (0, 0, 1, 1)


def test_splits_mixed_deck_group_without_building_the_cover(monkeypatch):
    # Z/6 = Z/2 x Z/3 at p = 2: the trivial character of Z/3 gives the double
    # cover, (1, 4, 5), and the other two see every vertex, giving twice the
    # double-cover complex with unit coefficients, (0, 0, 2)
    c4 = fixture("cycle", n=4)
    want = betti_Fp(CubeComplex(c4, _shared(6)).chain_complex(), 2)
    monkeypatch.setattr(models.CubeComplex, "__init__", _refuse_cover)
    series = growth_experiment(c4, [_shared(6)], 2)
    assert series.covers[0].betti == want == (1, 4, 9)


def _refuse_cover(*args):
    raise AssertionError("a cover was built")


def test_p_part_and_p_prime_part_must_multiply_to_index(monkeypatch):
    # a split that leaves P as the whole deck group is refused
    split = FiniteQuotientSpec.sylow_split
    monkeypatch.setattr(FiniteQuotientSpec, "sylow_split",
                        lambda spec, p: (spec, split(spec, p)[1]))
    c4 = fixture("cycle", n=4)
    with pytest.raises(CorruptComplexError, match="do not multiply to the index 6"):
        growth_experiment(c4, [_shared(6)], 2)


def test_character_count_must_match_p_prime_part(monkeypatch):
    supports = FiniteQuotientSpec.character_supports
    monkeypatch.setattr(FiniteQuotientSpec, "character_supports",
                        lambda spec: {**supports(spec), 0: 2})
    c4 = fixture("cycle", n=4)
    with pytest.raises(CorruptComplexError, match="4 characters counted for a p'-part of order 3"):
        growth_experiment(c4, [_shared(6)], 2)


@pytest.mark.parametrize("route, spec", [("cover_betti", None), ("split_betti", _shared(6))])
def test_every_row_is_checked_against_euler_characteristic(monkeypatch, route, spec):
    # chi(C_4) = 0, so every cover has Euler characteristic index * 1; a row
    # off by one in degree 0 is caught on either route
    original = getattr(growth, route)
    monkeypatch.setattr(growth, route,
                        lambda *a: (lambda b: (b[0] + 1,) + b[1:])(original(*a)))
    c4 = fixture("cycle", n=4)
    spec = spec or standard_spec(c4, 2)
    with pytest.raises(CorruptComplexError, match="Euler characteristic"):
        growth_experiment(c4, [spec], 2)
