"""Integral and mod-p homology of chain complexes, plus the join assembly.

Betti numbers over Q and torsion coefficients come out of sparse Smith normal
forms; mod-p betti numbers come out of independent sparse rank computations,
so the universal-coefficient identity

    b_i(F_p) = b_i(Q) + #{t in torsion_i : p | t} + #{t in torsion_{i-1} : p | t}

is a genuine cross-check between two routes, not a tautology.  Only
simplicial_chain_complex writes boundary entries, and this module alone
knows their layout: degree 0 holds the empty simplex and degree k the
(k-1)-faces, so the chain complex of x, cached on x, has the reduced
homology of x one degree up.  cube_chain_complex filters or twists its
entries into new support, P-cover and cover complexes, and sets those of
a list of unit masks side by side as one block-diagonal complex, which
validate checks and betti_Fp ranks block by block in one pass.

A simplicial complex has one route to its homology, homology_summary (and
betti_table over F_p alone): the complex is split by simplicial.join_factors,
flag or not, and the homology of the factors' chain complexes, as built, is
folded by the Kunneth formula of a tensor product, which holds for every
join; the torsion it assembles is normalized by the same smith_normal_form.
Its mod-p tables are the factors' F_p ranks, checked factor by factor
against their Smith normal forms; the top-cohomology criterion reads them.
Equal factors are one object (simplicial.join_factors), and each
distinct factor is reduced once per call, its results keyed by the object
and read at every position it takes; nothing is cached on a ChainComplexZ,
so every call, a certificate replay included, reduces its factors anew.
A cone, a join with a one-vertex factor, is reduced through that apex
alone: a point's chain complex is acyclic, and so is its tensor product
with any other, so the other factors' chain complexes are never built and
the universal-coefficient check runs on the apex.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple, Union

from .errors import CorruptComplexError
from .linalg import (SNFResult, SparseIntMatrix, _columns, convolve, pivot_rows_mod_p,
                     prime_factors, smith_normal_form)
from .simplicial import SimplicialComplex, join_factors


class ChainComplexZ:
    """Bounded chain complex of free Z-modules with fixed ordered bases.

    dims[i] is the number of cells in degree i; boundary(i) maps degree i to
    degree i-1.  It is given for every degree 1..top, and for no other: the
    boundary out of degree 0 is zero, and the homology is that of the
    complex as given.
    """

    __slots__ = ("dims", "_bnd", "_checked")

    def __init__(self, dims: Sequence[int], boundaries: Dict[int, SparseIntMatrix]):
        self.dims = tuple(dims)
        self._bnd = dict(boundaries)
        self._checked = False
        degrees = range(1, len(self.dims))
        for i in degrees:
            m = self._bnd.get(i)
            if m is None:
                raise CorruptComplexError(f"missing boundary in degree {i}")
            if m.rows != self.dims[i - 1] or m.cols != self.dims[i]:
                raise CorruptComplexError(
                    f"boundary {i} is {m.rows}x{m.cols}, expected "
                    f"{self.dims[i - 1]}x{self.dims[i]}")
        if len(self._bnd) > len(degrees):
            extra = min(i for i in self._bnd if i not in degrees)
            raise CorruptComplexError(f"boundary in degree {extra}, outside 1..{self.top}")

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def boundary(self, i: int) -> SparseIntMatrix:
        """The map C_i -> C_{i-1}; zero matrices outside the support."""
        if i in self._bnd:
            return self._bnd[i]
        rows = self.dims[i - 1] if 1 <= i <= self.top + 1 else 0
        cols = self.dims[i] if 0 <= i <= self.top else 0
        return SparseIntMatrix(rows, cols, {})

    def validate(self) -> None:
        """Check boundary-squared = 0 in every degree; raises on failure.

        Each column of d_{i+1} is multiplied by d_i on its own, so every
        entry of the product d_i d_{i+1} is computed exactly once.
        """
        if self._checked:
            return
        below = _columns(self.boundary(1), frozenset()) if 1 < self.top else {}
        for i in range(1, self.top):
            above = _columns(self.boundary(i + 1), frozenset())
            for col in above.values():
                acc: Dict[int, int] = {}
                for k, w in col.items():
                    for r, v in below.get(k, {}).items():
                        acc[r] = acc.get(r, 0) + v * w
                if any(acc.values()):
                    raise CorruptComplexError(
                        f"boundary composition nonzero in degree {i + 1}")
            below = above
        self._checked = True

    def __repr__(self):
        return f"<ChainComplexZ dims={self.dims}>"


def cube_facets(base: SimplicialComplex, i: int) -> Dict[Tuple[int, int], int]:
    """Boundary entries of simplicial_chain_complex(base) in degree i.

    They map (position of s minus s_j among the (i-2)-simplices, with the
    empty simplex as the only one in dimension -1; position of s) to the sign
    (-1)^j, over the (i-1)-simplices s of base in canonical order and j in
    turn, so the n-th entry deletes the n-th vertex of base.faces(i - 1) read
    in order.  SparseIntMatrix.entries keeps that order, and
    cube_chain_complex relies on it.
    """
    below = base.face_index(i - 2) if i > 1 else {(): 0}
    entries = {}
    for col, s in enumerate(base.faces(i - 1)):
        for j in range(i):
            entries[(below[s[:j] + s[j + 1:]], col)] = (-1) ** j
    return entries


def simplicial_chain_complex(x: SimplicialComplex) -> ChainComplexZ:
    """Chain complex of x with the canonical ordered simplex bases, the empty
    simplex in degree 0 and the (k-1)-faces in degree k: the support complex
    of every vertex.

    The boundary of a simplex is the alternating sum over vertex deletions in
    sorted order (cube_facets), and boundary(1) is the augmentation, so
    degree k + 1 has the reduced homology of x in degree k; the empty complex
    has dims (1,).  Built once and cached on x, which is immutable, so its
    boundary-squared check also runs once.

    >>> from raag.simplicial import from_facets
    >>> hollow = from_facets([[0, 1], [1, 2], [0, 2]])
    >>> cc = simplicial_chain_complex(hollow)
    >>> cc.dims, homology_Z(cc).betti
    ((1, 3, 3), (0, 0, 1))
    """
    if x._chain is None:
        dims = (1,) + tuple(len(x.faces(k)) for k in range(x.dim + 1))
        x._chain = ChainComplexZ(dims, {i: SparseIntMatrix(dims[i - 1], dims[i], cube_facets(x, i))
                                        for i in range(1, len(dims))})
    return x._chain


def cube_chain_complex(x: SimplicialComplex, units: Union[int, Sequence[int]] = 0,
                       shift: Sequence[Sequence[int]] = ()) -> ChainComplexZ:
    """Chain complex of len(shift[0]) copies of the cube cells of x (one
    when shift is empty), twisted by a deck group, read off the entries of
    simplicial_chain_complex(x); or, for a list of unit masks and one copy,
    the block-diagonal sum of their support complexes.  Every call builds a
    new complex.

    The cube cells of x are the cells of its chain complex: the empty simplex
    in degree 0 and the (i-1)-simplices in degree i.  shift[v][qi] is the
    deck position of deck[qi] + phi(v), and the cell over base cell s at deck
    position qi is qi * (base cells in its degree) + position of s.
    Direction j of the cube over (v_0 < ... < v_k) contributes (-1)^j times
    (translated facet - untranslated facet), so a zero image puts both
    facets on one cell, where they cancel; with one copy every translation
    is trivial.  A direction v in the bit mask units (all of them when units
    is -1) has coefficient 1 instead of t_v - 1: it contributes (-1)^j times
    the untranslated facet alone.  So one copy with units T is the support
    complex of T, and with every vertex of x a unit (units -1, say) it has
    the entries of simplicial_chain_complex(x).

    Given a list of masks, which takes one copy, block b is the support
    complex of units[b]: its cells follow those of the b blocks before it in
    every degree, so a cell's block is its position over the block's height
    in that degree (betti_Fp's blocks).  No boundary entry crosses blocks.

    >>> from raag.simplicial import from_facets
    >>> hollow = from_facets([[0, 1], [1, 2], [0, 2]])
    >>> betti_Fp(cube_chain_complex(hollow), 2)
    (1, 3, 3)
    >>> betti_Fp(cube_chain_complex(hollow, 1), 2)
    (0, 0, 1)
    >>> both = cube_chain_complex(hollow, [0, 1])
    >>> both.dims, betti_Fp(both, 2, 2)
    ((2, 6, 6), [(1, 3, 3), (0, 0, 1)])
    """
    base = simplicial_chain_complex(x)
    masks = [units] if isinstance(units, int) else units
    n_deck = len(shift[0]) if shift else 1
    dims = tuple(len(masks) * n_deck * c for c in base.dims)
    boundaries: Dict[int, SparseIntMatrix] = {}
    for i in range(1, len(dims)):
        # the n-th entry deletes the n-th vertex of x.faces(i - 1) (cube_facets)
        directions = chain.from_iterable(x.faces(i - 1))
        entries = base.boundary(i).entries
        n_below, n_here = base.dims[i - 1], base.dims[i]
        if n_deck == 1:  # every translation is trivial: only unit directions write
            plan = list(zip(entries.items(), directions))
            boundaries[i] = SparseIntMatrix(dims[i - 1], dims[i], {
                (b * n_below + fpos, b * n_here + col): sign
                for b, T in enumerate(masks) for ((fpos, col), sign), v in plan if T >> v & 1})
            continue
        # per entry: (facet position, column), sign, shift list or None for a unit
        plan = [(key, sign, None if units >> v & 1 else shift[v])
                for (key, sign), v in zip(entries.items(), directions)]
        twisted: Dict[Tuple[int, int], int] = {}
        for qi in range(n_deck):
            here, first = qi * n_below, qi * n_here
            for (fpos, col), sign, to in plan:
                if to is None:
                    twisted[(here + fpos, first + col)] = sign
                elif to[qi] != qi:
                    twisted[(to[qi] * n_below + fpos, first + col)] = sign
                    twisted[(here + fpos, first + col)] = -sign
        boundaries[i] = SparseIntMatrix(dims[i - 1], dims[i], twisted)
    return ChainComplexZ(dims, boundaries)


@dataclass(frozen=True)
class HomologySummary:
    """Integral homology plus an optional per-prime betti table.

    betti[i] and torsion[i] describe H_i (or reduced H_i when reduced is set)
    for i = 0..dim; torsion entries are invariant factors in divisibility
    order.  betti_mod_p stores (p, table) pairs for the primes requested.
    """

    reduced: bool
    betti: Tuple[int, ...]
    torsion: Tuple[Tuple[int, ...], ...]
    betti_mod_p: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()

    @property
    def dim(self) -> int:
        return len(self.betti) - 1

    def betti_fp(self, p: int) -> Tuple[int, ...]:
        for q, table in self.betti_mod_p:
            if q == p:
                return table
        raise KeyError(f"no mod-{p} table on this summary")

    def primes(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.betti_mod_p)

    def is_trivial(self) -> bool:
        """All stored groups vanish (useful only on reduced summaries)."""
        return all(b == 0 for b in self.betti) and all(not t for t in self.torsion)

    def group(self, i: int) -> Tuple[int, Tuple[int, ...]]:
        """(rank, torsion) of degree i, with empty groups outside 0..dim."""
        if 0 <= i < len(self.betti):
            return self.betti[i], self.torsion[i]
        return 0, ()

    def group_text(self, i: int) -> str:
        """Degree i as text, free part first: "Z^2 + Z/2", "Z", "0"."""
        rank, torsion = self.group(i)
        parts = []
        if rank == 1:
            parts.append("Z")
        elif rank > 1:
            parts.append(f"Z^{rank}")
        parts.extend(f"Z/{t}" for t in torsion)
        return " + ".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        return {
            "reduced": self.reduced,
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
            "betti_mod_p": {str(p): list(t) for p, t in self.betti_mod_p},
        }

    @staticmethod
    def from_json_dict(data: dict) -> "HomologySummary":
        return HomologySummary(
            reduced=bool(data["reduced"]),
            betti=tuple(data["betti"]),
            torsion=tuple(tuple(t) for t in data["torsion"]),
            betti_mod_p=tuple(sorted((int(p), tuple(t))
                                     for p, t in data.get("betti_mod_p", {}).items())))


def homology_Z(cc: ChainComplexZ) -> HomologySummary:
    """Betti numbers and torsion from Smith normal forms of the boundaries.

    Raises CorruptComplexError if any boundary composition is nonzero.

    The boundaries are reduced from the top degree down, clearing as it goes:
    the columns of d_i indexed by the rows R of the +-1 pivots of d_{i+1}
    (SNFResult.unit_rows) are left out.  The reduced pivot columns of
    d_{i+1} are cycles of d_i, as integer combinations of columns of d_{i+1},
    and on R they form a triangular block with a +-1 diagonal, which is
    invertible over Z.  So for each r in R some integer combination of them
    is 1 on r and 0 on the rest of R, and d_i d_{i+1} = 0 makes column r of
    d_i an integer combination of the columns outside R; unimodular column
    operations zero the columns in R, which keeps the rank and the invariant
    factors.  This is betti_Fp's argument over Z.  The rows of the columns
    set aside by the reduction are not cleared: their block need not be
    unimodular, and leaving those columns out can change the torsion.
    """
    cc.validate()
    top = cc.top
    snfs: Dict[int, SNFResult] = {}
    cleared: AbstractSet[int] = frozenset()
    for i in range(top, 0, -1):
        snfs[i] = smith_normal_form(cc.boundary(i), cleared)
        cleared = snfs[i].unit_rows
    betti = []
    torsion = []
    rank_in = 0  # the rank of d_i
    for i in range(top + 1):
        above = snfs.get(i + 1)
        rank_out = above.rank if above else 0
        betti.append(cc.dims[i] - rank_in - rank_out)
        torsion.append(above.nonunit() if above else ())
        rank_in = rank_out
    return HomologySummary(reduced=False, betti=tuple(betti), torsion=tuple(torsion))


def betti_Fp(cc: ChainComplexZ, p: int,
             blocks: Optional[int] = None) -> Union[Tuple[int, ...], List[Tuple[int, ...]]]:
    """Betti numbers over F_p from sparse matrix ranks; with blocks = n, the
    list of the rows of the n blocks of a block-diagonal sum of complexes of
    equal dims (cube_chain_complex with a list of masks).

    The boundaries are reduced from the top degree down, clearing as it goes:
    the columns of d_i indexed by the pivot rows of d_{i+1} are dropped.  For
    any pivot set this keeps the rank, since d_i d_{i+1} = 0 and the reduced
    columns of d_{i+1}, restricted to their pivot rows, form an invertible
    triangular block; so those columns of d_i lie in the span of the others.
    A column of a block-diagonal matrix is reduced only by pivot columns of
    its own block, so each pivot row counts toward the rank of its block,
    row // (block height), and one reduction per degree ranks every block.
    """
    cc.validate()
    top = cc.top
    n = blocks or 1
    ranks = [0] * (n * (top + 2))  # the rank of d_i on block b at i * n + b
    cleared: AbstractSet[int] = frozenset()
    for i in range(top, 0, -1):
        cleared = pivot_rows_mod_p(cc.boundary(i), p, cleared)
        if n == 1:  # one block holds every pivot
            ranks[i] = len(cleared)
            continue
        height = cc.dims[i - 1] // n
        for r in cleared:
            ranks[i * n + r // height] += 1
    rows = [tuple(d // n - ranks[i * n + b] - ranks[i * n + n + b] for i, d in enumerate(cc.dims))
            for b in range(n)]
    return rows if blocks else rows[0]


def uct_betti_fp(betti: Sequence[int], torsion: Sequence[Sequence[int]], p: int) -> Tuple[int, ...]:
    """Mod-p betti numbers predicted from integral data (universal coefficients)."""
    out = []
    for i in range(len(betti)):
        here = sum(1 for t in torsion[i] if t % p == 0)
        below = sum(1 for t in torsion[i - 1] if t % p == 0) if i >= 1 else 0
        out.append(betti[i] + here + below)
    return tuple(out)


# -- join homology ------------------------------------------------------------


def _gcds(t1: Sequence[int], t2: Sequence[int]) -> List[int]:
    """Orders of Z/s (x) Z/t, which is also Tor(Z/s, Z/t): gcd(s, t) when above 1."""
    return [g for s in t1 for t in t2 if (g := math.gcd(s, t)) > 1]


def join_homology_kunneth(h1: HomologySummary, h2: HomologySummary) -> HomologySummary:
    """Homology of the tensor product of two chain complexes of free
    modules from the homology of each (Kunneth):

      H_k = sum_{i+j=k} H_i (x) H'_j + sum_{i+j=k-1} Tor(H_i, H'_j).

    The chain complex of a join is the tensor product of its factors'
    simplicial_chain_complex, whose degree 0 is the empty simplex, so the
    inputs are homology_Z of those as built, and the empty complex, Z in
    degree 0, is the unit.  Only nonzero groups are paired.  The output has
    degrees 0..dim(h1)+dim(h2): the top homology of a complex of free
    modules is free, so no Tor lands above.  The torsion of each degree is
    the invariant factors of its cyclic orders, read off the Smith normal
    form of their diagonal matrix.
    """
    top = h1.dim + h2.dim
    betti = [0] * (top + 1)
    bags: List[List[int]] = [[] for _ in range(top + 2)]  # cyclic orders per degree
    nonzero = [(j, r2, t2) for j, (r2, t2) in enumerate(zip(h2.betti, h2.torsion)) if r2 or t2]
    for i, (r1, t1) in enumerate(zip(h1.betti, h1.torsion)):
        if not (r1 or t1):
            continue
        for j, r2, t2 in nonzero:
            gcds = _gcds(t1, t2)
            betti[i + j] += r1 * r2
            bags[i + j] += list(t2) * r1 + list(t1) * r2 + gcds
            bags[i + j + 1] += gcds
    torsion = []
    for tors in bags[:top + 1]:
        if tors:  # the sum of the Z/t is the cokernel of diag(tors)
            diag = SparseIntMatrix(len(tors), len(tors), {(j, j): t for j, t in enumerate(tors)})
            torsion.append(smith_normal_form(diag).nonunit())
        else:
            torsion.append(())
    return HomologySummary(reduced=False, betti=tuple(betti), torsion=tuple(torsion))


# -- the homology of a simplicial complex, one join factor at a time ----------


def homology_summary(x: SimplicialComplex, reduced: bool = False,
                     primes: Optional[Sequence[int]] = ()) -> HomologySummary:
    """Integral homology of x, with mod-p tables at primes (None: 2 and every
    torsion prime of the result), built from the join factors alone.

    The factors' chain complexes are folded by the Kunneth formula as built;
    degree k + 1 of the result is reduced degree k of x.  Unreduced homology
    adds Z in degree 0; the empty complex has no degrees.  Each factor's
    mod-p ranks are checked against its Smith normal forms by universal
    coefficients, and a mismatch raises CorruptComplexError.  Equal factors
    are one object: its Smith normal forms, F_p ranks and check run once,
    and the fold reads them at each of its positions.  A join with a
    one-vertex factor, a cone, reduces that factor alone, and its zero
    homology is padded to every degree of x.

    >>> from raag.fixtures import fixture
    >>> from raag.simplicial import cone, join, join_factors
    >>> x = join(fixture("rp2_flag"), fixture("discrete", n=2))  # suspension of RP^2
    >>> len(join_factors(x))
    2
    >>> h = homology_summary(x, primes=None)
    >>> h.betti, h.torsion, h.betti_mod_p
    ((1, 0, 0, 0), ((), (), (2,), ()), ((2, (1, 0, 1, 1)),))
    >>> c = cone(fixture("rp2_flag"))  # contractible: its apex's homology alone
    >>> [f.n_vertices for f in join_factors(c)]
    [31, 1]
    >>> h = homology_summary(c, primes=None)
    >>> h.betti, h.torsion, h.betti_mod_p
    ((1, 0, 0, 0), ((), (), (), ()), ((2, (1, 0, 0, 0)),))
    """
    factors = _reduced_factors(x)
    parts = {f: homology_Z(simplicial_chain_complex(f)) for f in dict.fromkeys(factors)}
    h = functools.reduce(join_homology_kunneth, [parts[f] for f in factors])
    betti, torsion = _pad(h.betti, x, 0), _pad(h.torsion, x, ())
    tables = []
    for p in default_primes(h) if primes is None else primes:
        rows = {f: betti_Fp(simplicial_chain_complex(f), p) for f in parts}
        if any(rows[f] != uct_betti_fp(q.betti, q.torsion, p) for f, q in parts.items()):
            raise CorruptComplexError(f"universal-coefficient cross-check failed at p = {p}")
        table = _pad(convolve([rows[f] for f in factors]), x, 0)
        tables.append((p, _unreduce(table[1:], reduced)))
    return HomologySummary(reduced, _unreduce(betti[1:], reduced), torsion[1:], tuple(tables))


def betti_table(x: SimplicialComplex, p: int) -> Tuple[int, ...]:
    """Reduced betti numbers of x over F_p from ranks alone, factor by factor.

    Kunneth over a field: the chain complex of a join is the tensor product
    of its factors', so its betti numbers are the product of the factors'
    rows as polynomials, and reduced degree k is their degree k + 1.  A
    factor that the join repeats is one object, ranked once, and a cone
    ranks its apex alone.
    """
    factors = _reduced_factors(x)
    rows = {f: betti_Fp(simplicial_chain_complex(f), p) for f in dict.fromkeys(factors)}
    return _pad(convolve([rows[f] for f in factors]), x, 0)[1:]


def _reduced_factors(x: SimplicialComplex) -> List[SimplicialComplex]:
    """The join factors of x whose chain complexes are reduced: all of them,
    or a one-vertex factor alone when x is a join of two or more (a cone).
    A point's chain complex is acyclic, and the Kunneth formula makes the
    tensor product of an acyclic complex of free modules with any other one
    acyclic, so the join's homology is the point's: zero in every degree."""
    factors = join_factors(x)
    if len(factors) > 1:
        for f in factors:
            if f.n_vertices == 1:
                return [f]
    return factors


def _pad(row: Sequence, x: SimplicialComplex, zero) -> tuple:
    """A row over the chain degrees of x's factors, degrees 0..dim x + 1 of
    the chain complex of x: those of a cone's apex stop at degree 1."""
    return tuple(row) + (zero,) * (x.dim + 2 - len(row))


def _unreduce(betti: Tuple[int, ...], reduced: bool) -> Tuple[int, ...]:
    """Reduced betti numbers, or unreduced ones: one more in degree 0."""
    return betti if reduced or not betti else (betti[0] + 1,) + betti[1:]


def flag_reduced_summary(x: SimplicialComplex) -> HomologySummary:
    """Classify's homology_summary: reduced, with checked tables at default primes."""
    return homology_summary(x, reduced=True, primes=None)


# -- top cohomology criterion --------------------------------------------------


def default_primes(h: HomologySummary) -> List[int]:
    """2 and every prime dividing a torsion coefficient of h, ascending."""
    return sorted({2} | {p for degree in h.torsion for t in degree for p in prime_factors(t)})


def top_cohomology_nonzero(x: SimplicialComplex,
                           summary: Optional[HomologySummary] = None) -> Tuple[bool, dict]:
    """Whether reduced H^d(L, Z) is nonzero in the top dimension d = dim L.

    By universal coefficients H^d != 0 iff the top reduced betti number over Q
    is positive or H_{d-1} has torsion; in top degree this is also equivalent
    to b_d(L, F_p) > 0 for some prime p.  The returned detail dict records
    which condition fired and the finite prime scan that cross-checks the
    equivalence (2 plus every prime dividing a torsion coefficient of
    H_{d-1}); a scan mismatch would mean an engine bug and raises.

    The scan reads the top degree of the summary's mod-p tables: F_p ranks
    that homology_summary checks against the Smith normal forms.  A
    precomputed summary may be passed in; one that is not reduced or lacks
    a scanned prime's table raises ValueError.

    >>> from raag.simplicial import from_facets
    >>> square = from_facets([[0, 1], [1, 2], [2, 3], [0, 3]])  # S^0 * S^0
    >>> nonzero, detail = top_cohomology_nonzero(square)
    >>> nonzero, detail["condition"], detail["checked_primes"]
    (True, 'top_betti_positive', {'2': 1})
    """
    if x.is_empty():
        raise ValueError("empty complex has no top dimension")
    d = x.dim
    h = homology_summary(x, reduced=True, primes=None) if summary is None else summary
    if not h.reduced:
        raise ValueError("top cohomology check needs a reduced summary")
    betti_top = h.betti[d]
    torsion_below = h.torsion[d - 1] if d >= 1 else ()
    result = betti_top > 0 or bool(torsion_below)
    scan = {2}
    for t in torsion_below:
        scan.update(prime_factors(t))
    tables = dict(h.betti_mod_p)
    if not scan <= tables.keys():
        raise ValueError(f"top cohomology check needs mod-p tables at p = {sorted(scan)}")
    checked = {p: tables[p][d] for p in sorted(scan)}
    if (any(v > 0 for v in checked.values())) != result:
        raise CorruptComplexError(
            f"universal-coefficient cross-check failed in top degree: {checked} vs {result}")
    if result:
        if betti_top > 0:
            condition, witness_prime, all_primes = "top_betti_positive", 2, True
        else:
            condition = "torsion_below_top"
            witness_prime = min(min(prime_factors(t)) for t in torsion_below)
            all_primes = False
    else:
        condition, witness_prime, all_primes = "vanishes", None, False
    detail = {
        "dimension": d,
        "betti_top": betti_top,
        "torsion_below_top": list(torsion_below),
        "condition": condition,
        "witness_prime": witness_prime,
        "all_primes": all_primes,
        "checked_primes": {str(p): v for p, v in sorted(checked.items())},
        "cross_check": "matrix_rank",
    }
    return result, detail

