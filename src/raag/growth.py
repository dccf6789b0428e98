"""Mod-p homology growth along chains of finite abelian covers.

For a chain of finite quotients of A_L the experiment records, per cover and
degree, the exact betti number over F_p and the exact ratio betti/index as a
rational.  The reference column is the reduced betti number of L one degree
down, which is the limit along exhausting residual chains.

No cover is built; two routes give the betti numbers, both from complexes
that homology.cube_chain_complex reads off the chain complexes cached on L
and its join factors.  The rows of the support complexes are kept on the
join factors, one dict per prime, so each is computed once per factor and
prime, however many experiments read it; the rows a call still needs are
reduced in batches of at most ROW_BATCH_CELLS cells, each one block-diagonal
complex checked and reduced once (_rows_of).  The reference column is the
row of all of L's vertices, h(V), an ordinary row of those batches, read
after the covers, whose batches already hold it for a standard_spec with
k >= 2.  When the generator images are independent
(the deck group is the direct sum of the cyclic groups they generate, as
for every standard_spec), the cover is a polyhedral product and its betti
numbers are a weighted sum over vertex subsets T of the betti numbers h(T)
of complexes the size of L (cover_betti).  When L is a join, h(T) is the
convolution of its join factors' rows, and so is the weighted sum: each
row comes from a complex the size of its factor, on the vertex part that
simplicial.join_parts gives it (support_betti).  Equal factors are one
object (simplicial.join_factors) with one set of rows, so a join that
repeats a factor, such as (S^0)^{*n}, reduces its support complexes once.
Every other spec is split into its p-part P and its part Q' of order prime
to p: over F_p with roots of unity adjoined the cover's chain complex
splits over the characters of Q', and its betti numbers are a sum over
vertex sets T, weighted by the number of characters of support T, of
complexes the size of the P-cover (split_betti).  When Q' is cyclic, which
is when the lcm of the image orders is |Q'|, the characters are counted by
order, with no list: the phi(e) characters of order e are 1 exactly on the
images whose order divides |Q'| / e.  Every experiment checks that each
row's alternating sum is the cover's Euler characteristic,
index * (1 - chi(L)).

Abelian quotients of a nonabelian A_L never form a residual chain, so except
for the exactly derivable families below the ratios are descriptive only and
every rendered report says so.  Derivable families (closed forms proved by
Euler characteristic / covers of tori / products):

  * dim L = 0 (free group): b_1 = index (n - 1) + 1;
  * L a full simplex (free abelian): every cover is a torus, b_i = C(n, i);
  * L a join of two discrete sets with the quotient spec split into disjoint
    coordinate blocks per side (product of free groups): betti numbers are the
    convolution of the two graph-cover rows (1, |Q_side| (a - 1) + 1).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import CorruptComplexError, CoverSpecError, NotFlagError
from .homology import betti_Fp, cube_chain_complex
from .linalg import convolve, is_prime
from .models import FiniteQuotientSpec, check_cover_size, check_generator_count
from .simplicial import SimplicialComplex, is_flag, join_factors, join_parts

CAVEAT = ("abelian quotient kernels of a nonabelian group do not form a residual "
          "chain; ratios are descriptive unless an exact closed form is noted")


@dataclass(frozen=True)
class CoverResult:
    moduli_label: str
    index: int
    betti: Tuple[int, ...]
    expected: Optional[Tuple[int, ...]]

    def ratio(self, degree: int) -> Fraction:
        return Fraction(self.betti[degree], self.index)


@dataclass(frozen=True)
class GrowthSeries:
    """Results of one chain of covers at one prime."""

    complex_name: str
    prime: int
    dim: int
    reference: Tuple[int, ...]
    covers: Tuple[CoverResult, ...]
    derivable_family: Optional[str]

    def rows(self):
        for cov in self.covers:
            for degree, b in enumerate(cov.betti):
                r = cov.ratio(degree)
                yield {
                    "modulus_vector": cov.moduli_label,
                    "index": cov.index,
                    "degree": degree,
                    "betti": b,
                    "ratio_num": r.numerator,
                    "ratio_den": r.denominator,
                    "reference": self.reference[degree],
                }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=[
            "modulus_vector", "index", "degree", "betti",
            "ratio_num", "ratio_den", "reference"])
        writer.writeheader()
        for row in self.rows():
            writer.writerow(row)
        return out.getvalue()

    def exact_match(self) -> Optional[bool]:
        """Whether every cover hit its closed form; None when not derivable."""
        if self.derivable_family is None:
            return None
        return all(c.expected == c.betti for c in self.covers)

    def render_report(self) -> str:
        name = self.complex_name or "L"
        lines = [
            f"homology growth of finite covers: {name}, coefficients F_{self.prime}",
            f"reference (reduced betti of the defining complex, one degree down): "
            f"{list(self.reference)}",
        ]
        header = f"{'moduli':>12} {'index':>7} " + " ".join(
            f"{'b_%d' % i:>8}" for i in range(self.dim + 2))
        lines.append(header)
        for cov in self.covers:
            cells = " ".join(f"{b:>8}" for b in cov.betti)
            lines.append(f"{cov.moduli_label:>12} {cov.index:>7} {cells}")
            ratios = " ".join(f"{str(cov.ratio(i)):>8}" for i in range(self.dim + 2))
            lines.append(f"{'ratio':>12} {'':>7} {ratios}")
        if self.derivable_family is not None:
            status = "EXACT" if self.exact_match() else "MISMATCH"
            lines.append(f"closed form ({self.derivable_family}): {status}")
        lines.append(f"caveat: {CAVEAT}")
        return "\n".join(lines)


def check_prime(p: int) -> None:
    """Raise CoverSpecError unless p is a prime below 2^64, given as an int."""
    if not isinstance(p, int):
        raise CoverSpecError(f"the prime must be an integer, got {p!r}")
    try:
        prime = is_prime(p)
    except ValueError as e:
        raise CoverSpecError(str(e)) from None
    if not prime:
        raise CoverSpecError(f"{p} is not prime")


def _derivable_family(L: SimplicialComplex, specs: Sequence[FiniteQuotientSpec],
                      indices: Sequence[int]):
    """(family tag, expected betti per spec) or (None, [None]*len).

    indices[i] is the index of specs[i], computed once by the caller.
    """
    n = L.n_vertices
    if L.dim == 0:
        expected = [(1, idx * (n - 1) + 1) for idx in indices]
        return "free group, b_1 from Euler characteristic", expected
    if len(L.facets) == 1 and len(L.facets[0]) == n:
        row = tuple(math.comb(n, i) for i in range(n + 1))
        return "free abelian group, torus covers", [row for _ in specs]
    parts = join_parts(L) if L.dim == 1 else ()
    if len(parts) == 2:
        a, b = (len(p) for p in parts)
        expected = []
        for spec in specs:
            blocks = _side_blocks(spec, parts)
            if blocks is None:
                return None, [None] * len(specs)
            qa, qb = blocks
            ma = qa * (a - 1) + 1
            mb = qb * (b - 1) + 1
            expected.append((1, ma + mb, ma * mb))
        return "product of two free groups, Kunneth", expected
    return None, [None] * len(specs)


def _side_blocks(spec: FiniteQuotientSpec, parts: Sequence[Sequence[int]]):
    """Deck orders of the two sides when the spec splits by coordinate
    blocks: the images are reduced mod k, so no coordinate is nonzero on
    both sides."""
    used = [{j for v in part for j, x in enumerate(spec.images[v]) if x} for part in parts]
    if used[0] & used[1]:
        return None  # sides share a coordinate: no product structure
    return tuple(FiniteQuotientSpec(moduli=spec.moduli,
                                    images=tuple(spec.images[v] for v in part)).index
                 for part in parts)


def independent_orders(spec: FiniteQuotientSpec, index: int) -> Optional[Tuple[int, ...]]:
    """Orders k_v of the generator images (FiniteQuotientSpec.image_orders)
    if they are independent, else None.

    The images are independent when the deck group, of order index, is the
    direct sum of the cyclic groups they generate: index == prod k_v.  Every
    standard_spec is of this kind.
    """
    orders = spec.image_orders()
    return orders if math.prod(orders) == index else None


def support_cells(L: SimplicialComplex, orders: Sequence[int]) -> int:
    """Cells of the factor rows cover_betti(L, orders, p) reads: 2^|S_F|
    support complexes of 1 + f(F) cells per join factor F of L.

    Equal factors share their rows, but each is charged here as if it had
    its own, so models.MAX_COVER_CELLS refuses the same covers as when each
    factor computed its own rows."""
    return sum(2 ** sum(orders[v] > 1 for v in part) * (1 + sum(F.f_vector()))
               for F, part in zip(join_factors(L), join_parts(L)))


ROW_BATCH_CELLS = 1024
"""Cells of one block-diagonal complex of support rows (_rows_of), unless
one support complex alone is larger.  Sized by measurement on the 4,096
rows of 25 cells of `raag growth --fixture cycle --n 12 --prime 2 --moduli 2`
(2-vCPU Xeon, Python 3.11): against one complex per row, peak memory grew
by 0.2 MiB at this cap, by 1.1 MiB at 4,096 cells and by 130 MiB with no
cap, and the run took 0.096 s here, 0.105 s at 4,096 cells and 0.138 s with
one complex per row.  cycle(5)'s 32 rows of 11 cells are one batch."""


def _rows_of(F: SimplicialComplex, masks: Sequence[int], prime: int) -> Dict[int, Tuple[int, ...]]:
    """F's rows h_F(T) over F_prime, keyed by bit masks T over F's own
    vertices and kept in F._rows[prime], with the rows of masks, which are
    distinct, computed first if missing.

    The missing rows, the row of all of F among them, are reduced in
    batches of at most ROW_BATCH_CELLS cells: one cube_chain_complex of the
    batch's masks, one boundary-squared check and one betti_Fp, which ranks
    every block."""
    rows = F._rows.setdefault(prime, {})
    missing = [T for T in masks if T not in rows]
    size = max(1, ROW_BATCH_CELLS // (1 + sum(F.f_vector())))
    for i in range(0, len(missing), size):
        batch = missing[i:i + size]
        rows.update(zip(batch, betti_Fp(cube_chain_complex(F, batch), prime, len(batch))))
    return rows


def support_betti(L: SimplicialComplex, T: int, prime: int) -> Tuple[int, ...]:
    """h(T) over F_prime, T a bit mask over L's vertices (-1 for all of V).

    The support complex of T has one basis element e_s per cell of the
    Salvetti complex (the empty simplex and every face s of L, in degree
    |s|) and the cube boundary restricted to the directions in T:
    d e_s = sum over j with s_j in T of (-1)^j e_{s - s_j}
    (homology.cube_chain_complex).  T = {} gives zero maps, T = V the chain
    complex of L, whose degree k + 1 is the reduced homology of L in
    degree k.

    L is the join of its join factors F, on their vertex parts (join_parts),
    which may interleave (C_4's are (0, 2) and (1, 3)).  The support complex
    of T is, up to signs, the tensor product of the factors' support
    complexes of T_F, the vertices of T in F's part, so over F_p (Kunneth)
    h(T) is the convolution of the factors' rows h_F(T_F) as polynomials in
    the degree.  Each row is computed on first use and kept on its factor,
    keyed by prime and by a bit mask over the factor's own vertices; equal
    factors are one object, so they share their rows.  A complex that does
    not split is its own only factor, on all its vertices.

    >>> from raag.fixtures import fixture
    >>> octahedron = fixture("octahedron")  # S^0 * S^0 * S^0, a 2-sphere
    >>> support_betti(octahedron, -1, 2), support_betti(octahedron, 0, 2)
    ((0, 0, 0, 1), (1, 6, 12, 8))
    """
    rows = []
    for F, part in zip(join_factors(L), join_parts(L)):
        T_F = sum(1 << j for j, v in enumerate(part) if T >> v & 1)
        rows.append(_rows_of(F, [T_F], prime)[T_F])
    return convolve(rows)


def cover_betti(L: SimplicialComplex, orders: Sequence[int], prime: int) -> Tuple[int, ...]:
    """F_prime betti numbers of the cover of a spec whose images are
    independent, of orders k_v = orders[v].

    The cover is the polyhedral product of (k_v-gon, its vertices) over L,
    and over a field its betti numbers split over vertex subsets
    (Bahri-Bendersky-Cohen-Gitler):
    b_i = sum over T within S = {v : k_v > 1} of prod_{v in T} (k_v - 1) h_i(T).
    The weight is a product over the vertices, so the sum is the convolution
    over the join factors F of the same sum over the subsets of S_F, the
    vertices of S in F's part; it reads sum_F 2^|S_F| factor rows
    (support_betti), which equal factors share."""
    rows = []
    for F, part in zip(join_factors(L), join_parts(L)):
        ks = tuple(orders[v] for v in part)
        S = sum(1 << j for j, k in enumerate(ks) if k > 1)
        subsets = [S]  # every subset of S, S first and the empty set last
        while subsets[-1]:
            subsets.append((subsets[-1] - 1) & S)
        have = _rows_of(F, subsets, prime)
        total = [0] * (F.dim + 2)  # degrees 0..dim F + 1
        for T in subsets:
            weight = math.prod(k - 1 for j, k in enumerate(ks) if T >> j & 1)
            for d, b in enumerate(have[T]):
                total[d] += weight * b
        rows.append(total)
    return convolve(rows)


def split_betti(L: SimplicialComplex, spec: FiniteQuotientSpec, index: int,
                prime: int) -> Tuple[int, ...]:
    """F_prime betti numbers of the cover of any spec of the given index.

    Write the deck group Q as P x Q' (FiniteQuotientSpec.sylow_split).
    Over F_p with the roots of unity of order |Q'| adjoined, F_p[Q']
    splits into the characters chi of Q', and the chain complex of the
    cover into one summand per chi: the P-cover complex with coefficient
    chi(phi'(v)) t_v - 1 in direction v.  Where chi(phi'(v)) != 1 that
    coefficient is a unit, since t_v - 1 is nilpotent in F_p[P], and
    rescaling the cells turns it into 1.  So
    b_i = sum over T of N(T) b_i(K_T), N(T) being the number of
    characters of support T and K_T the P-cover complex with unit
    directions T (cube_chain_complex of L); for a trivial P, K_T is the
    support complex of T (support_betti).  The P deck group is enumerated
    once.  N(T) comes from FiniteQuotientSpec.character_supports, given |Q'|
    from its Smith normal form and the orders of its images, computed once
    for it and for the check below: a cyclic Q' is counted by character
    order in d(|Q'|) steps, any other Q' by listing its characters.
    |P| |Q'| must be the index, the characters counted must number
    |Q'|, and those that are 1 on image v, |Q'| / ord(v).
    """
    p_part, rest = spec.sylow_split(prime)
    deck, shift = p_part.cayley_table()
    order = rest.index
    if len(deck) * order != index:
        raise CorruptComplexError(
            f"p-part of order {len(deck)} and p'-part of order {order} "
            f"do not multiply to the index {index}")
    orders = rest.image_orders()
    counts = rest.character_supports(order, orders)
    if sum(counts.values()) != order:
        raise CorruptComplexError(
            f"{sum(counts.values())} characters counted for a p'-part of order {order}")
    for v, o in enumerate(orders):
        kernel = sum(count for T, count in counts.items() if not T >> v & 1)
        if kernel * o != order:
            raise CorruptComplexError(
                f"{kernel} characters are 1 on image {v}, of order {o}, "
                f"in a p'-part of order {order}")
    total = [0] * (L.dim + 2)  # degrees 0..dim L + 1
    for T, count in counts.items():
        row = (support_betti(L, T, prime) if len(deck) == 1 else
               betti_Fp(cube_chain_complex(L, T, shift), prime))
        for i, b in enumerate(row):
            total[i] += count * b
    return tuple(total)


def growth_experiment(L: SimplicialComplex, specs: Sequence[FiniteQuotientSpec],
                      prime: int) -> GrowthSeries:
    """Betti numbers of the covers of the cube complex of L over F_prime.

    specs must be ordered by strictly increasing index, and no cover may take
    more than models.MAX_COVER_CELLS cells: index copies of the Salvetti
    complex of L, or for independent images 2^|S_F| support complexes of
    1 + f(F) cells per join factor F of L, S_F being the vertices v of F with
    k_v > 1 (support_cells); both are checked from the Smith normal form
    index before any homology is computed.  prime must be a prime below 2^64.
    The per-degree reference is the reduced betti number of L one degree
    down, the row h(V): zero in degree zero unless L is empty, whose
    reduced betti number in degree -1 is 1.

    No cover is built: a spec with independent images is read off the rows
    kept on L's join factors (cover_betti), any other spec is split into its
    p-part and its p'-part (split_betti).  Every call checks every row
    against the Euler characteristic of the cover, index * (1 - chi(L)),
    before it reads the reference; a call whose check fails drops every
    factor's rows at prime, so the next call computes them anew.
    """
    flag, witness = is_flag(L)
    if not flag:
        raise NotFlagError(f"growth experiment needs a flag complex; minimal non-face {witness}",
                           witness=witness)
    check_prime(prime)
    if not specs:
        raise CoverSpecError("no covers requested")
    indices = [spec.index for spec in specs]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise CoverSpecError(f"specs must have strictly increasing index, got {indices}")
    for spec in specs:
        check_generator_count(L, spec)
    all_orders = [independent_orders(spec, idx) for spec, idx in zip(specs, indices)]
    for idx, orders in zip(indices, all_orders):
        check_cover_size(L, idx, None if orders is None else support_cells(L, orders))
    betti_rows = [split_betti(L, spec, idx, prime) if orders is None
                  else cover_betti(L, orders, prime)
                  for spec, idx, orders in zip(specs, indices, all_orders)]
    chi = 1 - L.euler_characteristic()
    for spec, idx, row in zip(specs, indices, betti_rows):
        if sum((-1) ** i * b for i, b in enumerate(row)) != idx * chi:
            for F in join_factors(L):  # equal factors are one object, met more than once
                F._rows.pop(prime, None)
            raise CorruptComplexError(
                f"betti numbers {list(row)} of the cover {spec.label()} do not sum "
                f"to its Euler characteristic {idx * chi}")

    # cover degree i against L's degree i - 1, read after the covers, whose
    # batches hold its factor rows for a standard spec with k >= 2
    reference = support_betti(L, -1, prime)
    family, expected = _derivable_family(L, specs, indices)
    covers = tuple(
        CoverResult(moduli_label=spec.label(), index=idx,
                    betti=tuple(row), expected=exp)
        for spec, idx, row, exp in zip(specs, indices, betti_rows, expected))
    return GrowthSeries(complex_name=L.name, prime=prime, dim=L.dim,
                        reference=reference, covers=covers, derivable_family=family)
