"""Cover chain complexes from integer deck indices against the tuple-based
build, the Smith-form index against enumeration, the cover size budget, the
column-wise boundary check, and cover betti numbers read off the support
rows on the join factors or split into p-part and p'-part against the built
cover."""

import inspect
import itertools
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (character_counts_mobius, cover_boundaries_tuples, deck_group_bfs,
                     support_table_unsplit)

import raag.growth as growth
import raag.models as models
from raag.errors import CorruptComplexError, CoverSpecError
from raag.fixtures import fixture
from raag.growth import cover_betti, growth_experiment, independent_orders, split_betti
from raag.homology import ChainComplexZ, betti_Fp, cube_chain_complex, simplicial_chain_complex
from raag.linalg import SparseIntMatrix, prime_factors
from raag.models import CubeComplex, FiniteQuotientSpec, standard_spec
from raag.simplicial import flag_completion, from_facets, join, join_factors, join_parts


@st.composite
def flag_complexes(draw, max_vertices=6, min_edges=0):
    n = draw(st.integers(2 if min_edges else 1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = (draw(st.lists(st.sampled_from(pairs), min_size=min_edges, unique=True))
             if pairs else [])
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


@st.composite
def covers_past_degree_one(draw):
    """Covers of an L with an edge, by a spec with one more coordinate of
    modulus 2 in which vertex 0 maps to 1: d_1 is then nonzero and d_2 has
    at least two columns."""
    L = draw(flag_complexes(min_edges=1))
    spec = draw(specs(L.n_vertices))
    images = tuple(image + (int(v == 0),) for v, image in enumerate(spec.images))
    return L, FiniteQuotientSpec(moduli=spec.moduli + (2,), images=images)


@settings(max_examples=80, deadline=None)
@given(covers())
# index 1: one copy, read off shift's one-entry lists
@example((from_facets([[0, 1], [1, 2]]),
          FiniteQuotientSpec(moduli=(3,), images=((0,), (0,), (0,)))))
def test_cover_build_matches_tuple_oracle(case):
    L, spec = case
    cover = CubeComplex(L, spec)
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
# dependent images: the Smith form of the index matrix sets column 0 aside
@example(FiniteQuotientSpec(moduli=(4, 2), images=((2, 1), (2, 1))))
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
    return ChainComplexZ(cc.dims, bnd)


@settings(max_examples=60, deadline=None)
@given(covers_past_degree_one())
def test_validate_rejects_corruption_outside_first_column(case):
    # adding 1 at (k, c) of d_{i+1} adds column k of d_i to column c of the
    # product, which is nonzero when that column of d_i is
    L, spec = case
    cc = CubeComplex(L, spec).chain_complex()
    found = [(i, k) for i in range(1, cc.top) if cc.boundary(i + 1).cols > 1
             for (_, k) in cc.boundary(i).entries]
    assume(found)
    i, k = max(found)
    with pytest.raises(CorruptComplexError):
        _corrupted(cc, i, k).validate()


def test_validate_rejects_corruption_in_augmented_simplicial_complex():
    # the augmentation is boundary(1), so d_1 d_2 = 0 is checked too
    cc = simplicial_chain_complex(from_facets([[0, 1, 2], [1, 2, 3]]))
    cc.validate()
    for i, k in ((1, 0), (2, 4)):
        with pytest.raises(CorruptComplexError):
            _corrupted(cc, i, k).validate()


def test_cover_size_budget(monkeypatch):
    # discrete(2) at k = 3: index 9, 9 vertices and 18 edges
    x = fixture("discrete", n=2)
    monkeypatch.setattr(models, "MAX_COVER_CELLS", 27)
    assert CubeComplex(x, standard_spec(x, 3)).chain_complex().dims == (9, 18)
    monkeypatch.setattr(models, "MAX_COVER_CELLS", 26)
    with pytest.raises(CoverSpecError, match="27 cells"):
        CubeComplex(x, standard_spec(x, 3))


def test_cover_checks_enumeration_against_smith_form(monkeypatch):
    x = fixture("discrete", n=2)
    monkeypatch.setattr(FiniteQuotientSpec, "index", property(lambda spec: 5))
    with pytest.raises(CorruptComplexError, match="Smith normal form"):
        CubeComplex(x, standard_spec(x, 2))


# -- support rows against the built cover -------------------------------------------

# Covers this large take tens of milliseconds to build; the bound keeps the
# differential tests below fast while still reaching p | k on six vertices.
ORACLE_CELLS = 8000


@st.composite
def independent_specs(draw, n, max_modulus=4):
    """Specs with independent images: each coordinate belongs to one vertex or
    to none, then column operations between coordinates of equal modulus (an
    automorphism of the group) make vertices share coordinates."""
    moduli = draw(st.lists(st.integers(1, max_modulus), min_size=1, max_size=4))
    images = [[0] * len(moduli) for _ in range(n)]
    for j, k in enumerate(moduli):
        v = draw(st.integers(-1, n - 1))
        if v >= 0:
            images[v][j] = draw(st.integers(min(1, k - 1), k - 1))
    pairs = [(a, b) for a, b in itertools.permutations(range(len(moduli)), 2)
             if moduli[a] == moduli[b]]
    if pairs:
        for a, b in draw(st.lists(st.sampled_from(pairs), max_size=3)):
            c = draw(st.integers(0, moduli[b] - 1))
            for img in images:
                img[b] = (img[b] + c * img[a]) % moduli[b]
    return FiniteQuotientSpec(moduli=tuple(moduli), images=tuple(map(tuple, images)))


def _check_against_cover(L, spec, p):
    """cover_betti's betti numbers for spec equal the built cover's, and the
    rows it added to each join factor are of subsets of the factor's part of
    S = {v : k_v > 1}, as masks over the factor's own vertices; an object
    that is several equal factors may take the subsets of any of its parts."""
    orders = independent_orders(spec, spec.index)
    assert orders is not None
    factors = join_factors(L)
    before = {id(F): set((F._rows or {}).get(p, ())) for F in factors}
    got = cover_betti(L, orders, p)
    subsets = {}
    for F, part in zip(factors, join_parts(L)):
        S = sum(1 << j for j, v in enumerate(part) if orders[v] > 1)
        subsets.setdefault(id(F), []).append(S)
    for F in factors:
        assert all(any(T & ~S == 0 for S in subsets[id(F)])
                   for T in set(F._rows[p]) - before[id(F)])
    assert got == betti_Fp(CubeComplex(L, spec).chain_complex(), p)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_support_table_matches_direct_cover(data):
    # one complex serves a standard spec and a spec with independent images,
    # so the second reads rows the first kept on its factors
    L = data.draw(flag_complexes())
    p = data.draw(st.sampled_from((2, 3, 5)))
    cells = 1 + sum(L.f_vector())
    ks = [k for k in range(1, 5) if k ** L.n_vertices * cells <= ORACLE_CELLS]
    _check_against_cover(L, standard_spec(L, data.draw(st.sampled_from(ks))), p)
    spec = data.draw(independent_specs(L.n_vertices))
    assume(spec.index * cells <= ORACLE_CELLS)
    _check_against_cover(L, spec, p)


@pytest.mark.parametrize("name, n, k, p", [
    ("cycle", 5, 2, 2), ("cycle", 5, 3, 3), ("cycle", 5, 4, 2), ("cycle", 5, 3, 2),
    ("octahedron", None, 2, 2), ("octahedron", None, 3, 3), ("octahedron", None, 2, 5),
    ("path", 4, 4, 2), ("simplex", 2, 3, 3), ("discrete", 3, 4, 3),
])
def test_support_table_matches_direct_cover_on_fixtures(name, n, k, p):
    L = fixture(name, n=n)
    _check_against_cover(L, standard_spec(L, k), p)


@st.composite
def joins(draw):
    """A * B for flag complexes A and B, at most 8 vertices, relabelled by a
    permutation so that the factors' vertex parts interleave.  B is often A
    relabelled, so that factors of A and B are equal complexes, or isomorphic
    ones with other facet lists."""
    a = draw(flag_complexes())
    if a.n_vertices <= 4 and draw(st.booleans()):
        sigma = draw(st.permutations(range(a.n_vertices)))
        b = from_facets([[sigma[v] for v in f] for f in a.facets])
    else:
        b = draw(flag_complexes(max_vertices=min(6, 8 - a.n_vertices)))
    x = join(a, b)
    perm = draw(st.permutations(range(x.n_vertices)))
    return from_facets([[perm[v] for v in f] for f in x.facets])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_join_split_matches_unsplit_support_table(data):
    # the per-factor convolution against the sum over whole-L support
    # complexes, and against the built cover where it is small
    L = data.draw(joins())
    p = data.draw(st.sampled_from((2, 3, 5)))
    spec = data.draw(independent_specs(L.n_vertices))
    orders = independent_orders(spec, spec.index)
    got = cover_betti(L, orders, p)
    factors = join_factors(L)
    assert len(factors) >= 2
    # equal factors, and only they, are one object with one dict of rows
    for F in factors:
        for G in factors:
            assert (F is G) == (F.facets == G.facets) == (F._rows is G._rows)
    assert got == support_table_unsplit(L.facets, orders, p)
    if spec.index * (1 + sum(L.f_vector())) <= ORACLE_CELLS:
        assert got == betti_Fp(CubeComplex(L, spec).chain_complex(), p)


@pytest.mark.parametrize("name, n, orders", [
    ("cycle", 4, (3, 2, 1, 4)),         # parts (0, 2) and (1, 3)
    ("octahedron", None, (2, 3, 1, 2, 2, 3)),
    ("simplex", 3, (2, 3, 4, 2)),       # four one-vertex factors
])
@pytest.mark.parametrize("p", (2, 3))
def test_join_split_matches_unsplit_support_table_on_fixtures(name, n, orders, p):
    L = fixture(name, n=n)
    assert cover_betti(L, orders, p) == support_table_unsplit(L.facets, orders, p)


@st.composite
def unsplit_flag_complexes(draw):
    """Flag complexes on 5 to 8 vertices that are their own only join factor."""
    n = draw(st.integers(5, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    L = flag_completion(from_facets([[v] for v in range(n)] + [list(e) for e in edges]))
    assume(join_factors(L) == [L])
    return L


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_rows_match_one_mask_complexes(data):
    # rows of random sets of masks, reduced in batches that a small cap splits,
    # against the complex of each mask on its own, and the cover betti
    # numbers they give against the unsplit dense oracle
    L = data.draw(unsplit_flag_complexes())
    p = data.draw(st.sampled_from((2, 3, 5)))
    full = (1 << L.n_vertices) - 1
    masks = data.draw(st.lists(st.integers(0, full), min_size=1, max_size=12, unique=True))
    orders = [1] * L.n_vertices
    for v in data.draw(st.lists(st.integers(0, L.n_vertices - 1), max_size=4, unique=True)):
        orders[v] = data.draw(st.integers(2, 4))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(growth, "ROW_BATCH_CELLS", data.draw(st.integers(1, 4 * (1 + sum(L.f_vector())))))
        rows = growth._rows_of(L, masks, p)
        got = cover_betti(L, orders, p)
    assert set(masks) <= set(rows) == set(L._rows[p])
    for T, row in rows.items():
        assert row == betti_Fp(cube_chain_complex(L, T), p)
    assert got == support_table_unsplit(L.facets, orders, p)


def test_shared_coordinate_images_are_not_independent():
    c4 = fixture("cycle", n=4)
    spec = FiniteQuotientSpec(moduli=(2,), images=((1,),) * 4)
    assert independent_orders(spec, spec.index) is None
    mixed = FiniteQuotientSpec(moduli=(2, 2), images=((1, 1), (0, 1), (0, 0), (0, 0)))
    assert independent_orders(mixed, mixed.index) == (2, 2, 1, 1)
    assert independent_orders(standard_spec(c4, 3), 81) == (3, 3, 3, 3)


# -- Sylow split against the built cover -------------------------------------------


@st.composite
def sylow_specs(draw, n, p):
    """Specs on n vertices whose deck group is a p-group, a group of order
    prime to p, or mixed: each modulus is p^a m with m prime to p.  Modulus 1
    coordinates, zero images and coordinates shared by several vertices are
    common."""
    kind = draw(st.sampled_from(("p-group", "p'-group", "mixed")))
    prime_to_p = [m for m in range(1, 8) if m % p]
    moduli = tuple(
        p ** (0 if kind == "p'-group" else draw(st.integers(0, 2)))
        * (1 if kind == "p-group" else draw(st.sampled_from(prime_to_p)))
        for _ in range(draw(st.integers(1, 3))))
    vector = st.tuples(*(st.integers(0, k - 1) for k in moduli))
    pool = draw(st.lists(vector, min_size=1, max_size=3)) + [tuple(0 for _ in moduli)]
    return FiniteQuotientSpec(moduli=moduli,
                              images=tuple(draw(st.sampled_from(pool)) for _ in range(n)))


def _check_split_against_cover(L, spec, p):
    index = spec.index
    got = split_betti(L, spec, index, p)
    assert got == betti_Fp(CubeComplex(L, spec).chain_complex(), p)
    P, rest = spec.sylow_split(p)
    assert P.index * rest.index == index
    assert all(k % p == 0 for k in P.moduli) and all(k % p for k in rest.moduli)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sylow_split_matches_built_cover(data):
    L = data.draw(flag_complexes())
    p = data.draw(st.sampled_from((2, 3, 5)))
    spec = data.draw(sylow_specs(L.n_vertices, p))
    assume(spec.index * (1 + sum(L.f_vector())) <= ORACLE_CELLS)
    _check_split_against_cover(L, spec, p)


@pytest.mark.parametrize("name, n, moduli, images, p", [
    ("cycle", 4, (6,), ((1,),) * 4, 2),                      # mixed, shared coordinate
    ("cycle", 4, (3,), ((1,), (2,), (0,), (1,)), 2),         # p'-group, a zero image
    ("cycle", 5, (4, 1), ((1, 0), (2, 0), (3, 0), (0, 0), (1, 0)), 2),  # p-group
    ("octahedron", None, (15,), ((1,), (5,), (3,), (0,), (6,), (10,)), 5),
    ("octahedron", None, (2, 3), ((1, 0), (0, 1), (1, 1), (1, 2), (0, 0), (0, 2)), 3),
    ("path", 4, (12,), ((3,), (4,), (6,), (2,)), 2),
    # cyclic p'-parts, counted by character order: Z/105 with image orders
    # 1, 3, 5, 7 and 105, and Z/3 x Z/5 = Z/15
    ("cycle", 5, (105,), ((0,), (35,), (21,), (15,), (1,)), 2),
    ("octahedron", None, (3, 5), ((1, 0), (0, 1), (1, 1), (2, 3), (0, 0), (1, 4)), 2),
])
def test_sylow_split_matches_built_cover_on_fixtures(name, n, moduli, images, p):
    _check_split_against_cover(fixture(name, n=n), FiniteQuotientSpec(moduli, images), p)


def test_cyclic_p_prime_part_of_large_index():
    # Z/15 x Z/1001 = Z/15015, 15015 = 3 5 7 11 13, at p = 2: the 32 divisors
    # are counted in place of 15015 characters; F_2 has b_1 = index + 1
    L = fixture("discrete", n=2)
    spec = FiniteQuotientSpec((15, 1001), ((1, 1), (3, 0)))
    assert spec.image_orders() == (15015, 5)
    series = growth_experiment(L, [spec], 2)
    assert series.covers[0].index == 15015
    assert series.covers[0].betti == (1, 15016)
    assert series.exact_match()


def test_split_rejects_wrong_character_supports(monkeypatch):
    # _cyclic_supports with (n // e) % o misread as e % o still counts |Q'|
    # characters, but the wrong ones are 1 on each image: Z/105 has 35 that
    # are 1 on the image of order 3, and the mutant counts 70
    source = inspect.getsource(models._cyclic_supports)
    assert "(n // e) % o" in source
    namespace = dict(vars(models))
    exec(source.replace("(n // e) % o", "e % o"), namespace)
    monkeypatch.setattr(models, "_cyclic_supports", namespace["_cyclic_supports"])
    L = fixture("cycle", n=5)
    spec = FiniteQuotientSpec((105,), ((0,), (35,), (21,), (15,), (1,)))
    with pytest.raises(CorruptComplexError, match="70 characters are 1 on image 1") as caught:
        growth_experiment(L, [spec], 2)
    assert caught.value.exit_code == 15


# -- support rows kept on the join factors ----------------------------------------


def _same_as_fresh_complex(L, spec, p):
    """growth_experiment on L, whose factors keep the rows earlier calls
    left on them, gives the rows, reference and family of the same call on a new
    complex on L's facets."""
    got = growth_experiment(L, [spec], p)
    want = growth_experiment(from_facets(L.facets), [spec], p)
    assert got.covers == want.covers
    assert (got.reference, got.derivable_family) == (want.reference, want.derivable_family)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kept_tables_match_fresh_complexes(data):
    # one L serves a sweep of specs on both routes, at primes that come back
    # after another, so each call reads what earlier calls left in the rows
    # of its own prime
    L = data.draw(flag_complexes())
    cells = 1 + sum(L.f_vector())
    for p in (2, 3, 2, 5):
        spec = data.draw(st.one_of(independent_specs(L.n_vertices),
                                   sylow_specs(L.n_vertices, p)))
        assume(spec.index * cells <= ORACLE_CELLS)
        _same_as_fresh_complex(L, spec, p)
    assert all(sorted(F._rows) == [2, 3, 5] for F in join_factors(L))


def test_kept_tables_are_read_at_their_own_prime():
    # rp2_flag has 2-torsion: at p = 2 the characters of Z/3 and Z/5 read
    # h(V) = (0, 0, 1, 1), at p = 3 and 5 those of Z/2 read (0, 0, 0, 0);
    # rows of the wrong prime would give the other row
    L = fixture("rp2_flag")
    rest = ((0,),) * (L.n_vertices - 1)
    for p, k in ((2, 3), (3, 2), (2, 5), (5, 2), (3, 4)):
        _same_as_fresh_complex(L, FiniteQuotientSpec((k,), ((1,),) * L.n_vertices), p)
        _same_as_fresh_complex(L, FiniteQuotientSpec((k,), ((1,),) + rest), p)
    assert join_factors(L) == [L]
    assert [L._rows[p][(1 << L.n_vertices) - 1] for p in (2, 3, 5)] == \
        [(0, 0, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: specs(n, max_coords=3, max_modulus=6)))
def test_character_supports_match_moebius_inversion(spec):
    assume(spec.index <= 200)
    want = character_counts_mobius(spec.moduli, spec.images)
    assert spec.character_supports(spec.index, spec.image_orders()) == want


# orders up to 420 with many divisors; other orders are drawn too
MANY_DIVISORS = (12, 24, 30, 36, 60, 72, 84, 90, 105, 120, 180, 210, 240, 360, 420)


@st.composite
def cyclic_specs(draw, n):
    """Specs on n vertices whose ambient group is cyclic, of order up to 420:
    its prime powers spread over one to three coprime coordinates, so that
    moduli (3, 5, 7) give Z/105.  Each image is drawn from a pool of at most
    three vectors plus zero, each a random vector, often times a divisor of
    the order, so repeated, zero and low-order images are common."""
    order = draw(st.one_of(st.sampled_from(MANY_DIVISORS), st.integers(1, 420)))
    moduli = [1] * draw(st.integers(1, 3))
    for q in prime_factors(order):
        power = q
        while order % (power * q) == 0:
            power *= q
        moduli[draw(st.integers(0, len(moduli) - 1))] *= power
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    vector = st.tuples(st.one_of(st.just(1), st.sampled_from(divisors)),
                       *(st.integers(0, k - 1) for k in moduli))
    pool = [tuple(d * x % k for x, k in zip(xs, moduli))
            for d, *xs in draw(st.lists(vector, min_size=1, max_size=3))]
    pool.append((0,) * len(moduli))
    return FiniteQuotientSpec(moduli=tuple(moduli),
                              images=tuple(draw(st.sampled_from(pool)) for _ in range(n)))


@st.composite
def noncyclic_specs(draw, n):
    """Specs on n >= 2 vertices whose deck group is not cyclic: two moduli
    sharing a prime q, the first two images the two unit vectors, the rest
    from a pool with zero, the vertices shuffled."""
    q = draw(st.sampled_from((2, 3, 5)))
    moduli = (q * draw(st.integers(1, 4)), q * draw(st.integers(1, 4)))
    vector = st.tuples(*(st.integers(0, k - 1) for k in moduli))
    pool = draw(st.lists(vector, min_size=1, max_size=2)) + [(0, 0)]
    images = [(1, 0), (0, 1)] + [draw(st.sampled_from(pool)) for _ in range(n - 2)]
    return FiniteQuotientSpec(moduli=moduli, images=tuple(draw(st.permutations(images))))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_character_supports_count_cyclic_groups_by_order(data):
    # the count by character order on cyclic deck groups, the listing on the
    # others, against Moebius inversion over subgroup orders
    cyclic = data.draw(st.booleans())
    if cyclic:
        spec = data.draw(st.integers(0, 5).flatmap(cyclic_specs))
    else:
        spec = data.draw(st.integers(2, 5).flatmap(noncyclic_specs))
    order = spec.index
    assert (math.lcm(*spec.image_orders()) == order) == cyclic
    want = character_counts_mobius(spec.moduli, spec.images)
    assert spec.character_supports(order, spec.image_orders()) == want
    assert sum(want.values()) == order
