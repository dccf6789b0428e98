"""Combinatorial models attached to a right-angled Artin group A_L.

The cube complex with one (k+1)-cube per k-simplex of L (one vertex for the
empty simplex) and its finite covers classified by homomorphisms to finite
abelian groups.  The base complex has zero boundary maps; in a cover the two
parallel facets of a cube in direction v sit at deck elements q and
q + phi(v) and enter with opposite signs.

Cover cells are plain integers: the cell over base cell s at deck position qi
is qi * (number of base cells) + position of s.  One enumeration of the deck
group yields its sorted elements and a shift table, shift[v][qi] being the
position of deck[qi] + phi(v), so a boundary entry costs a list lookup and no
group arithmetic.  The index |<phi(v)>| comes separately from a Smith normal
form, before anything is enumerated: a cover above MAX_COVER_CELLS cells is
refused up front, and the enumeration is checked against it.
homology.cube_chain_complex twists the entries of the chain complex of L,
which homology.simplicial_chain_complex writes and caches on L, by a shift
table; directions it is told have coefficient 1 give the support complexes
and p-part complexes whose F_p ranks growth reads in place of a built
cover, keeping the support complexes' rows on L's join factors.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from operator import add, mod
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CorruptComplexError, CoverSpecError, NotFlagError
from .homology import ChainComplexZ, cube_chain_complex
from .linalg import SparseIntMatrix, prime_factors, smith_normal_form
from .simplicial import SimplicialComplex, is_flag


# -- finite quotient data -------------------------------------------------------


@dataclass(frozen=True)
class FiniteQuotientSpec:
    """Residue assignment generator -> Z_{k_1} x ... x Z_{k_r}.

    moduli is the modulus vector; images[v] is the residue vector of the
    generator at vertex v.  The deck group of the associated cover is the
    subgroup generated by the images, not the full product.
    """

    moduli: Tuple[int, ...]
    images: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if any(type(k) is not int or k < 1 for k in self.moduli):
            raise CoverSpecError(f"moduli must be positive integers, got {self.moduli}")
        norm = []
        for img in self.images:
            if len(img) != len(self.moduli):
                raise CoverSpecError(
                    f"residue vector {img} does not match modulus vector {self.moduli}")
            for x in img:
                if type(x) is not int:
                    raise CoverSpecError(f"residues must be integers, got {img}")
            norm.append(tuple(x % k for x, k in zip(img, self.moduli)))
        object.__setattr__(self, "images", tuple(norm))

    def cayley_table(self) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[List[int], ...]]:
        """The deck group, sorted, and its shift table, from one enumeration.

        shift[v][qi] is the position in the deck of deck[qi] + images[v].
        Equal images share one list.
        """
        moduli, images = self.moduli, self.images
        zero = tuple(0 for _ in moduli)
        sums = {}
        frontier = [zero]
        seen = {zero}
        while frontier:
            nxt = []
            for q in frontier:
                row = [tuple(map(mod, map(add, q, img), moduli)) for img in images]
                sums[q] = row
                for t in row:
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        deck = tuple(sorted(sums))
        pos = {q: i for i, q in enumerate(deck)}
        by_image: Dict[Tuple[int, ...], List[int]] = {}
        for v, img in enumerate(images):
            if img not in by_image:
                by_image[img] = [pos[sums[q][v]] for q in deck]
        return deck, tuple(by_image[img] for img in images)

    def deck_group(self) -> Tuple[Tuple[int, ...], ...]:
        """Subgroup generated by the generator images, sorted tuples."""
        return self.cayley_table()[0]

    @functools.cached_property
    def index(self) -> int:
        """|<images>| = prod(moduli) / |Z^r / (images + moduli lattice)|,
        computed once per spec.

        The cokernel order is the product of the Smith normal form diagonal
        of diag(moduli) stacked above the images, which has full column rank,
        so nothing is enumerated.  Row order does not change a Smith form;
        this one puts the lowest entries of the columns on image rows, which
        are often +-1 pivots.
        """
        n, r = len(self.images), len(self.moduli)
        entries = {(r + i, j): x for i, img in enumerate(self.images)
                   for j, x in enumerate(img) if x}
        entries.update(((j, j), k) for j, k in enumerate(self.moduli))
        snf = smith_normal_form(SparseIntMatrix(r + n, r, entries))
        return math.prod(self.moduli) // math.prod(snf.diagonal)

    def label(self) -> str:
        return "x".join(str(k) for k in self.moduli) if self.moduli else "1"

    def sylow_split(self, p: int) -> Tuple["FiniteQuotientSpec", "FiniteQuotientSpec"]:
        """(P, Q'): the deck group as its p-part P times its part Q' of order
        prime to p.

        Z/k = Z/p^a x Z/(k / p^a) with p^a the largest power of p dividing k,
        so P takes the moduli p^a and Q' the moduli k / p^a, each with the
        images reduced, and |P| |Q'| = index.  Coordinates of modulus 1 are
        dropped.
        """
        powers = []
        for k in self.moduli:
            q = 1
            while k % p == 0:
                k //= p
                q *= p
            powers.append(q)

        def part(moduli):
            keep = [j for j, k in enumerate(moduli) if k > 1]
            return FiniteQuotientSpec(moduli=tuple(moduli[j] for j in keep),
                                      images=tuple(tuple(img[j] for j in keep)
                                                   for img in self.images))
        return part(powers), part([k // q for k, q in zip(self.moduli, powers)])

    def image_orders(self) -> Tuple[int, ...]:
        """Order of each generator image, lcm_j k_j / gcd(x_j, k_j)."""
        return tuple(math.lcm(*(k // math.gcd(x, k) for x, k in zip(img, self.moduli)))
                     for img in self.images)

    def character_supports(self) -> Dict[int, int]:
        """Number of characters of the deck group per support: the bit mask
        of the vertices whose image the character does not send to 1.  Zero
        images lie in no support.

        The deck group is cyclic exactly when the lcm of the image orders,
        its exponent, equals its order n.  Then its phi(e) characters of
        order e, for each divisor e of n, share one kernel, the subgroup of
        order n / e, which holds exactly the images whose order divides
        n / e; so the count is one sum over the divisors of n, with no
        character listed.

        Otherwise the characters are listed.  A character is fixed by its
        values on the images.  The characters c of the ambient group take the
        value sum_j c_j x_j M / k_j in Z/M, M = lcm(moduli), on an image x, so
        the characters of the deck group form the subgroup of (Z/M)^r, one
        coordinate per distinct nonzero image, spanned by one vector g_j per
        modulus.  It is enumerated coset by coset: each g_j adds the
        multiples of g_j below its order modulo the span of the earlier ones.

        >>> spec = FiniteQuotientSpec((6,), ((1,), (2,), (3,), (0,)))
        >>> dict(sorted(spec.character_supports().items()))
        {0: 1, 3: 2, 5: 1, 7: 2}
        """
        orders = self.image_orders()
        if math.lcm(*orders) == self.index:
            return _cyclic_supports(self.index, orders)
        masks: Dict[Tuple[int, ...], int] = {}
        for v, img in enumerate(self.images):
            if any(img):
                masks[img] = masks.get(img, 0) | 1 << v
        if not masks:
            return {0: 1}
        m = math.lcm(*self.moduli)
        cols: List[List[int]] = [[0] for _ in masks]  # the span so far, per image
        for j, k in enumerate(self.moduli):
            g = tuple(img[j] * (m // k) % m for img in masks)
            span = set(zip(*cols))
            mult, x = 1, g  # the order of g modulo the span
            while x not in span:
                mult += 1
                x = tuple((a + b) % m for a, b in zip(x, g))
            if mult > 1:
                cols = [[(x + i * gi) % m for i in range(mult) for x in col]
                        for col, gi in zip(cols, g)]
        counts = Counter(zip(*([x != 0 for x in col] for col in cols)))
        return {sum(mask for nonzero, mask in zip(pattern, masks.values()) if nonzero): n
                for pattern, n in counts.items()}


def _cyclic_supports(n: int, orders: Sequence[int]) -> Dict[int, int]:
    """Characters of a cyclic group of order n per support, the images having
    the given orders: the phi(e) characters of order e send to 1 exactly the
    images whose order divides n / e."""
    masks: Dict[int, int] = {}  # vertices per image order above 1
    for v, o in enumerate(orders):
        if o > 1:
            masks[o] = masks.get(o, 0) | 1 << v
    divisors = [(1, 1)]  # (e, phi(e)) for the divisors e of n
    for q in prime_factors(n):
        a, m = 0, n
        while m % q == 0:
            m //= q
            a += 1
        divisors += [(e * q ** i, phi * (q - 1) * q ** (i - 1))
                     for e, phi in divisors for i in range(1, a + 1)]
    counts: Dict[int, int] = {}
    for e, phi in divisors:
        T = 0
        for o, mask in masks.items():
            if (n // e) % o:
                T |= mask
        counts[T] = counts.get(T, 0) + phi
    return counts


def standard_spec(L: SimplicialComplex, k: int) -> FiniteQuotientSpec:
    """Each generator to its own coordinate of (Z/k)^n."""
    if k < 1:
        raise CoverSpecError(f"modulus must be positive, got {k}")
    n = L.n_vertices
    images = tuple(tuple(1 if j == v else 0 for j in range(n)) for v in range(n))
    return FiniteQuotientSpec(moduli=(k,) * n, images=images)


# -- cube complexes -------------------------------------------------------------


# Largest cover, in cells over all dimensions, whose homology is computed.
# check_cover_size charges each route the cells it reduces: a cover with
# independent images, read off growth's support rows, the support complexes
# of those rows (growth.support_cells); any other spec in growth_experiment,
# and a CubeComplex, index * (1 + f(L)).
MAX_COVER_CELLS = 250_000


def check_generator_count(base: SimplicialComplex, spec: FiniteQuotientSpec) -> None:
    """Raise CoverSpecError unless spec has one image per vertex of base."""
    if len(spec.images) != base.n_vertices:
        raise CoverSpecError(
            f"spec assigns {len(spec.images)} generators, base has {base.n_vertices}")


def check_cover_size(base: SimplicialComplex, index: int,
                     cells: Optional[int] = None) -> None:
    """Raise CoverSpecError if computing a cover of this index would take
    more than MAX_COVER_CELLS cells: by default index * (1 + f(base)), one
    copy of the Salvetti complex per deck element, or the cells of the
    support complexes whose rows growth.cover_betti reads
    (growth.support_cells)."""
    if cells is None:
        cells = index * (1 + sum(base.f_vector()))
    if cells > MAX_COVER_CELLS:
        raise CoverSpecError(
            f"cover of index {_decimal(index)} needs {_decimal(cells)} cells, "
            f"more than the limit of {MAX_COVER_CELLS}")


def _decimal(n: int) -> str:
    """n, or a power of two up to n past 4,300 digits (Python's default
    int-to-str limit) or past a lower limit set in the interpreter."""
    try:
        if n < 10 ** 4300:
            return str(n)
    except ValueError:
        pass
    return f"2^{n.bit_length() - 1} or more"


class CubeComplex:
    """Cover of the cube complex of L determined by a finite abelian quotient.

    Cells in dimension i are pairs (deck element, (i-1)-simplex of L), with the
    empty simplex giving the vertices; ordering is deck-element-major, then the
    canonical base-cell order.
    """

    __slots__ = ("base", "deck", "_shift", "_cc")

    def __init__(self, base: SimplicialComplex, spec: FiniteQuotientSpec):
        flag, witness = is_flag(base)
        if not flag:
            raise NotFlagError(
                f"cube complex model needs a flag base; minimal non-face {witness}",
                witness=witness)
        check_generator_count(base, spec)
        check_cover_size(base, spec.index)
        self.base = base
        self.deck, self._shift = spec.cayley_table()
        if len(self.deck) != spec.index:
            raise CorruptComplexError(
                f"deck group has {len(self.deck)} elements, Smith normal form says {spec.index}")
        self._cc: Optional[ChainComplexZ] = None

    @property
    def index(self) -> int:
        return len(self.deck)

    def chain_complex(self) -> ChainComplexZ:
        """Cubical boundary maps, from cube_chain_complex with no unit directions."""
        if self._cc is None:
            self._cc = cube_chain_complex(self.base, shift=self._shift)
        return self._cc
