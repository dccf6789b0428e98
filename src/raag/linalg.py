"""Exact sparse linear algebra over Z and F_p.

Everything here is arbitrary-precision: matrices hold Python ints, there is no
floating point and no overflow.

Smith normal form over Z and rank over F_p run one column reduction: columns
are reduced left to right, each against the stored pivot column sharing its
lowest (largest-index) nonzero row, until that row is a new pivot or the
column is zero.  Over F_p every nonzero lowest entry makes a pivot; over F_2
a column is a Python int and reduction is XOR.  Over Z a new lowest entry
makes a pivot only when it is +-1, so the reduction stays fraction-free, and
any other column is set aside.  Boundary matrices of simplicial and cubical
complexes (entries +-1) set aside few columns or none.

The pivot columns, restricted to their pivot rows, form a triangular block
with an invertible diagonal, +-1 over Z.  Over Z the set-aside columns are
then reduced at every pivot row, highest row first, which zeroes them there;
row operations by the unimodular pivot block then split the matrix into an
identity block and the set-aside columns.  Those stay in the one
representation, column dicts, from the reduction to the diagonal: the
classical least-absolute-value Smith reduction runs on them in place, with
the same column subtraction, and builds no row index.

Both kernels report their pivot rows, which lets `homology.betti_Fp` and
`homology.homology_Z` clear across consecutive boundaries: the columns of d_i
indexed by the pivot rows of d_{i+1} never need reducing.  Over Z only the
+-1 pivots are reported; a set-aside column does not span a unimodular minor,
and leaving its rows out of d_i could change the torsion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple


class SparseIntMatrix:
    """Immutable sparse integer matrix; entries maps (row, col) -> nonzero int."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Dict[Tuple[int, int], int]):
        self.rows = rows
        self.cols = cols
        self.entries = {k: v for k, v in entries.items() if v != 0}
        for (r, c) in self.entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_dense(data: Iterable[Iterable[int]]) -> "SparseIntMatrix":
        rows = [list(r) for r in data]
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged dense data")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = int(v)
        return SparseIntMatrix(len(rows), ncols, entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseIntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"<SparseIntMatrix {self.rows}x{self.cols} nnz={self.nnz}>"


@dataclass(frozen=True)
class SNFResult:
    """Diagonal of the Smith normal form, divisibility-ordered, zeros trailing,
    and the rows of the +-1 pivots of the column reduction."""

    diagonal: Tuple[int, ...]
    unit_rows: FrozenSet[int] = frozenset()

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)

    def nonunit(self) -> Tuple[int, ...]:
        """Invariant factors > 1 (the torsion coefficients of a cokernel)."""
        return tuple(d for d in self.diagonal if d > 1)


def _columns(m: SparseIntMatrix, skip: AbstractSet[int], p: int = 0) -> Dict[int, Dict[int, int]]:
    """The columns of m not in skip, as {column: {row: value}}, reduced mod p
    when p is nonzero."""
    cols: Dict[int, Dict[int, int]] = {}
    for (r, c), v in m.entries.items():
        if p:
            v %= p
        if v and c not in skip:
            cols.setdefault(c, {})[r] = v
    return cols


def _subtract(col: Dict[int, int], f: int, other: Dict[int, int]) -> None:
    """col -= f * other over Z."""
    for r, v in other.items():
        nv = col.get(r, 0) - f * v
        if nv:
            col[r] = nv
        else:
            del col[r]


def _reduce_columns(cols: Dict[int, Dict[int, int]],
                    p: int) -> Tuple[Dict[int, Dict[int, int]], List[Dict[int, int]]]:
    """Column reduction over F_p, or over Z when p is 0, in place.

    Returns the pivot columns keyed by their lowest row, each scaled so that
    its lowest entry is 1, and over Z the columns set aside because their
    lowest entry is not +-1 on a row that holds no pivot yet.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    aside: List[Dict[int, int]] = []
    for c in sorted(cols):
        col = cols[c]
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is not None:
                f = col[low]
                if p:
                    for r, v in other.items():
                        nv = (col.get(r, 0) - f * v) % p
                        if nv:
                            col[r] = nv
                        else:
                            del col[r]
                else:
                    _subtract(col, f, other)
                continue
            a = col[low]
            if p:
                inv = pow(a, -1, p)
                pivots[low] = {r: v * inv % p for r, v in col.items()}
            elif a == 1:
                pivots[low] = col
            elif a == -1:
                pivots[low] = {r: -v for r, v in col.items()}
            else:
                aside.append(col)
            break
    return pivots, aside


def _smith_phase(cols: List[Dict[int, int]]) -> List[int]:
    """Nonzero Smith diagonal of the columns cols, which it consumes.

    Each pass takes an entry a of least absolute value, at row r of column pc,
    and clears row r by column operations; row r is then zero off pc, so row
    operations by row r change pc alone and clear the rest of it.  Either
    clearing can leave a remainder, a smaller entry, which starts a new pass.
    Once a is alone in its row and column, an entry not divisible by a has
    its row added to row r, which touches no entry of pc, and clearing row r
    again leaves a remainder; otherwise |a| is emitted and pc dropped.  Every
    entry left is then a multiple of |a|, and integer operations keep it so,
    so the output is a divisibility chain.
    """
    diag: List[int] = []
    cols = [col for col in cols if col]
    while cols:
        _, r, j = min((abs(v), r, j) for j, col in enumerate(cols) for r, v in col.items())
        pc = cols.pop(j)
        a = pc[r]
        while True:
            for col in cols:
                if r in col:
                    _subtract(col, col[r] // a, pc)
            if any(r in col for col in cols):
                break
            for rr in [rr for rr in pc if rr != r]:
                v = pc.pop(rr) % a
                if v:
                    pc[rr] = v
            if len(pc) > 1:
                break
            bad = next((rr for col in cols for rr, v in col.items() if v % a), None)
            if bad is None:
                diag.append(abs(a))
                pc = {}
                break
            for col in cols:
                if bad in col:
                    col[r] = col[bad]
        cols = [col for col in cols if col]
        if pc:
            cols.append(pc)
    return diag


def smith_normal_form(m: SparseIntMatrix,
                      skip: AbstractSet[int] = frozenset()) -> SNFResult:
    """Smith normal form of an integer matrix, leaving out the columns in skip.

    The diagonal is a divisibility chain d_1 | d_2 | ... with zeros trailing,
    padded to min(rows, columns kept): one 1 per +-1 pivot of the column
    reduction, then what _smith_phase emits from the set-aside columns, which
    is already a chain, so its entries > 1 are the invariant factors as they
    stand.  It is invariant under row/column permutation and under any
    unimodular change of basis.  unit_rows holds the rows of the +-1 pivots:
    on those rows the pivot columns, as reduced, are triangular with a +-1
    diagonal, so the original pivot columns span a minor of determinant +-1
    there.  Rows of the set-aside columns are never reported.

    >>> smith_normal_form(SparseIntMatrix.from_dense([[2, 0], [0, 3]])).diagonal
    (1, 6)
    >>> smith_normal_form(SparseIntMatrix.from_dense([[2, 4], [6, 8]]))
    SNFResult(diagonal=(2, 4), unit_rows=frozenset())
    >>> m = SparseIntMatrix.from_dense([[1, 1, 0], [0, 2, 4]])
    >>> smith_normal_form(m).diagonal, smith_normal_form(m, skip={0})
    ((1, 2), SNFResult(diagonal=(1, 4), unit_rows=frozenset()))
    """
    pivots, aside = _reduce_columns(_columns(m, skip), 0)
    if aside:
        order = sorted(pivots, reverse=True)
        for col in aside:
            # the pivot at r touches no row below r, so one pass clears them all
            for r in order:
                f = col.get(r)
                if f:
                    _subtract(col, f, pivots[r])
    diag = [1] * len(pivots) + _smith_phase(aside)
    kept = m.cols - sum(1 for c in skip if 0 <= c < m.cols)
    diag += [0] * (min(m.rows, kept) - len(diag))
    return SNFResult(tuple(diag), frozenset(pivots))


def pivot_rows_mod_p(m: SparseIntMatrix, p: int,
                     skip: AbstractSet[int] = frozenset()) -> Set[int]:
    """Pivot rows of a column reduction of m over F_p, leaving out the
    columns in skip; len() of the result is the rank of the columns kept.

    >>> sorted(pivot_rows_mod_p(SparseIntMatrix.from_dense([[1, 1], [1, 1]]), 2))
    [1]
    """
    if p < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {p}")
    if p > 2:
        return set(_reduce_columns(_columns(m, skip, p), p)[0])
    bits: Dict[int, int] = {}
    for (r, c), v in m.entries.items():
        if v & 1 and c not in skip:
            bits[c] = bits.get(c, 0) | (1 << r)
    packed: Dict[int, int] = {}
    for c in sorted(bits):
        col = bits[c]
        while col:
            low = col.bit_length() - 1
            other = packed.get(low)
            if other is None:
                packed[low] = col
                break
            col ^= other
    return set(packed)


def rank_mod_p(m: SparseIntMatrix, p: int) -> int:
    """Rank of the matrix over the prime field F_p."""
    return len(pivot_rows_mod_p(m, p))


# -- small arithmetic helpers -------------------------------------------------


def prime_factors(n: int) -> Tuple[int, ...]:
    """Distinct prime divisors of n >= 1, ascending (trial division)."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def convolve(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Coefficients of the product of the polynomials sum_d row[d] t^d.

    >>> convolve([(1, 1), (1, 2, 1)])
    (1, 3, 3, 1)
    """
    total = rows[0]
    for row in rows[1:]:
        out = [0] * (len(total) + len(row) - 1)
        for i, a in enumerate(total):
            for j, b in enumerate(row):
                out[i + j] += a * b
        total = out
    return tuple(total)


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Whether n is prime, for n < 2^64; raises ValueError from 2^64 on.

    Miller-Rabin with the first twelve primes as bases, which no composite
    below 3.3 * 10^24 passes (Sorenson-Webster 2015), so the answer is exact.

    >>> [n for n in range(30) if is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    """
    if n >= 1 << 64:
        raise ValueError(f"{n} is too large: primality is decided below 2^64")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
