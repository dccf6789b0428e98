"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately naive: dense matrices, textbook algorithms,
exhaustive enumeration.  None of it imports the package's linear algebra or
flag machinery, so agreement is meaningful evidence rather than an identity
check of one code path against itself.  perfbench/check.py imports this
module without the package on its path, so nothing here imports raag.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx


# -- dense Smith normal form ---------------------------------------------------


def dense_snf(mat: Sequence[Sequence[int]]) -> List[int]:
    """Nonzero SNF diagonal of an integer matrix, textbook row/column reduction."""
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag: List[int] = []
    top = 0
    while True:
        pivot = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for r in range(rows):
            m[r][top], m[r][j] = m[r][j], m[r][top]
        # reduce until the pivot divides its row and column
        while True:
            p = m[top][top]
            dirty = False
            for i in range(top + 1, rows):
                if m[i][top] % p:
                    q = m[i][top] // p
                    for c in range(top, cols):
                        m[i][c] -= q * m[top][c]
                    m[top], m[i] = m[i], m[top]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(top + 1, cols):
                if m[top][j] % p:
                    q = m[top][j] // p
                    for r in range(top, rows):
                        m[r][j] -= q * m[r][top]
                    for r in range(top, rows):
                        m[r][top], m[r][j] = m[r][j], m[r][top]
                    dirty = True
                    break
            if not dirty:
                break
        p = m[top][top]
        for i in range(top + 1, rows):
            q = m[i][top] // p
            for c in range(top, cols):
                m[i][c] -= q * m[top][c]
        for j in range(top + 1, cols):
            q = m[top][j] // p
            for r in range(top, rows):
                m[r][j] -= q * m[r][top]
        diag.append(abs(p))
        top += 1
        if top >= rows or top >= cols:
            break
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# -- dense ranks ----------------------------------------------------------------


def rank_fraction(mat: Sequence[Sequence[int]]) -> int:
    """Rank over Q by Gaussian elimination with exact fractions."""
    m = [[Fraction(v) for v in row] for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def rank_gf(mat: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p by dense Gaussian elimination."""
    m = [[v % p for v in row] for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


# -- dense simplicial homology ---------------------------------------------------


def all_faces(facets: Sequence[Tuple[int, ...]]) -> Dict[int, List[Tuple[int, ...]]]:
    by_dim: Dict[int, set] = {}
    for f in facets:
        for k in range(1, len(f) + 1):
            for sub in itertools.combinations(sorted(f), k):
                by_dim.setdefault(k - 1, set()).add(sub)
    return {d: sorted(s) for d, s in by_dim.items()}


def boundary_matrix(faces: Dict[int, List[Tuple[int, ...]]], i: int,
                    augmented: bool = False) -> List[List[int]]:
    """Dense matrix of the boundary from i-faces to (i-1)-faces."""
    if i == 0:
        if not augmented:
            return [[0] * len(faces.get(0, []))]
        return [[1] * len(faces.get(0, []))]
    lower = {f: r for r, f in enumerate(faces.get(i - 1, []))}
    upper = faces.get(i, [])
    mat = [[0] * len(upper) for _ in range(max(len(lower), 1))]
    for c, f in enumerate(upper):
        for j in range(len(f)):
            sub = f[:j] + f[j + 1:]
            mat[lower[sub]][c] = (-1) ** j
    return mat


def brute_homology(facets: Sequence[Tuple[int, ...]], reduced: bool = False
                   ) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """(betti, torsion) per degree via dense SNF, degree 0..dim."""
    faces = all_faces(facets)
    dim = max(faces) if faces else -1
    betti, torsion = [], []
    for i in range(dim + 1):
        n_i = len(faces.get(i, []))
        di = boundary_matrix(faces, i, augmented=reduced)
        di1 = boundary_matrix(faces, i + 1) if i + 1 in faces else None
        rank_di = len([d for d in dense_snf(di) if d])
        if di1 is None:
            rank_di1, tors = 0, []
        else:
            snf = [d for d in dense_snf(di1) if d]
            rank_di1 = len(snf)
            tors = [d for d in snf if d > 1]
        betti.append(n_i - rank_di - rank_di1)
        torsion.append(tuple(sorted(tors)))
    return betti, torsion


def brute_betti_fp(facets: Sequence[Tuple[int, ...]], p: int,
                   reduced: bool = False) -> List[int]:
    faces = all_faces(facets)
    dim = max(faces) if faces else -1
    out = []
    for i in range(dim + 1):
        n_i = len(faces.get(i, []))
        r_lo = rank_gf(boundary_matrix(faces, i, augmented=reduced), p)
        r_hi = rank_gf(boundary_matrix(faces, i + 1), p) if i + 1 in faces else 0
        out.append(n_i - r_lo - r_hi)
    return out


# -- finite covers of the cube complex -------------------------------------------


def support_table_unsplit(facets: Sequence[Tuple[int, ...]], orders: Sequence[int],
                          p: int) -> Tuple[int, ...]:
    """F_p betti numbers of the cover of the cube complex of L, given by its
    facets, for a spec with independent images of orders k_v = orders[v],
    without splitting L into join factors.

    The sum over subsets T of S = {v : k_v > 1} of prod_{v in T} (k_v - 1)
    times the betti numbers of the support complex of T on the whole of L:
    one cell e_s per face s of L and the empty face, in degree |s|, and
    d e_s = sum over j with s_j in T of (-1)^j e_{s - s_j}, ranked densely.
    """
    faces = all_faces(facets)
    cells = [[()]] + [faces[d] for d in sorted(faces)]
    S = [v for v, k in enumerate(orders) if k > 1]
    total = [0] * len(cells)
    for size in range(len(S) + 1):
        for T in itertools.combinations(S, size):
            ranks = [0]
            for i in range(1, len(cells)):
                lower = {f: r for r, f in enumerate(cells[i - 1])}
                mat = [[0] * len(cells[i]) for _ in lower]
                for c, f in enumerate(cells[i]):
                    for j, v in enumerate(f):
                        if v in T:
                            mat[lower[f[:j] + f[j + 1:]]][c] = (-1) ** j
                ranks.append(rank_gf(mat, p))
            ranks.append(0)
            weight = 1
            for v in T:
                weight *= orders[v] - 1
            for i, row in enumerate(cells):
                total[i] += weight * (len(row) - ranks[i] - ranks[i + 1])
    return tuple(total)



def deck_group_bfs(moduli: Sequence[int], images: Sequence[Sequence[int]]
                   ) -> List[Tuple[int, ...]]:
    """Subgroup of Z/k_1 x ... x Z/k_r generated by the images, sorted, by BFS."""
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for q in frontier:
            for img in images:
                s = tuple((x + y) % k for x, y, k in zip(q, img, moduli))
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return sorted(seen)


def cover_boundaries_tuples(facets: Sequence[Tuple[int, ...]], moduli: Sequence[int],
                            images: Sequence[Sequence[int]]
                            ) -> Tuple[List[int], Dict[int, Dict[Tuple[int, int], int]]]:
    """(dims, {i: {(row, col): value}}) of a cover of the cube complex of L.

    Cells are (deck element, simplex) pairs found by dict lookup, ordered deck
    element first; direction j of the cube over (v_0 < ... < v_k) contributes
    (-1)^j (facet at q + image(v_j) - facet at q), summed entry by entry.
    """
    deck = deck_group_bfs(moduli, images)
    faces = all_faces(facets)
    top = max(faces) + 1 if faces else 0
    base = [[()]] + [faces[d] for d in range(top)]
    index = [{(q, s): n for n, (q, s) in enumerate((q, s) for q in deck for s in cells)}
             for cells in base]
    dims = [len(ix) for ix in index]
    boundaries: Dict[int, Dict[Tuple[int, int], int]] = {}
    for i in range(1, top + 1):
        entries: Dict[Tuple[int, int], int] = {}
        for (q, s), col in index[i].items():
            for j, v in enumerate(s):
                facet = s[:j] + s[j + 1:]
                moved = tuple((x + y) % k for x, y, k in zip(q, images[v], moduli))
                for cell, val in (((moved, facet), (-1) ** j), ((q, facet), -(-1) ** j)):
                    key = (index[i - 1][cell], col)
                    entries[key] = entries.get(key, 0) + val
        boundaries[i] = {k: v for k, v in entries.items() if v}
    return dims, boundaries


# -- facet absorption and complement components ---------------------------------


def maximal_simplices_quadratic(facets: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Distinct simplices of a facet list not strictly inside another listed one,
    by testing every pair; (size, lex) order."""
    simplices = {tuple(sorted(f)) for f in facets}
    kept = [s for s in simplices if not any(set(s) < set(t) for t in simplices)]
    return sorted(kept, key=lambda s: (len(s), s))


def complement_components_networkx(n_vertices: int, edges: Sequence[Tuple[int, int]]
                                   ) -> List[Tuple[int, ...]]:
    """Components of the explicit complement graph, ordered by smallest vertex."""
    edge_set = {tuple(sorted(e)) for e in edges}
    comp = nx.Graph()
    comp.add_nodes_from(range(n_vertices))
    comp.add_edges_from(e for e in itertools.combinations(range(n_vertices), 2)
                        if e not in edge_set)
    return sorted(tuple(sorted(c)) for c in nx.connected_components(comp))


def maximal_cliques_networkx(n_vertices: int, edges: Sequence[Tuple[int, int]]
                             ) -> List[Tuple[int, ...]]:
    """Maximal cliques of the graph on 0..n-1 by networkx.find_cliques, each
    sorted, in sorted order; isolated vertices are cliques of size one."""
    g = nx.Graph()
    g.add_nodes_from(range(n_vertices))
    g.add_edges_from(edges)
    return sorted(tuple(sorted(c)) for c in nx.find_cliques(g))


# -- exhaustive flag check --------------------------------------------------------


def is_flag_exhaustive(n_vertices: int, facets: Sequence[Tuple[int, ...]]) -> bool:
    """Every pairwise-adjacent vertex set spans a face; checked by brute force."""
    faces = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(sorted(f), k))
    edges = {f for f in faces if len(f) == 2}
    for size in range(3, n_vertices + 1):
        for combo in itertools.combinations(range(n_vertices), size):
            if all(pair in edges for pair in itertools.combinations(combo, 2)):
                if combo not in faces:
                    return False
    return True


# -- greedy collapse in seeded orders ------------------------------------------------


def seeded_greedy_collapse(facets: Sequence[Tuple[int, ...]], seed: int) -> bool:
    """Whether greedy elementary collapses leave a single vertex when each step
    removes the first free face, in random.Random(seed)'s shuffle of the
    sorted faces, with its one codimension-one coface."""
    faces = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(sorted(f), k))
    cofaces = {f: set() for f in faces}
    for f in faces:
        for sub in itertools.combinations(f, len(f) - 1):
            if sub:
                cofaces[sub].add(f)
    order = sorted(faces)
    random.Random(seed).shuffle(order)
    while True:
        sigma = next((f for f in order if f in faces and len(cofaces[f]) == 1), None)
        if sigma is None:
            return len(faces) == 1
        (tau,) = cofaces[sigma]
        for gone in (tau, sigma):
            faces.discard(gone)
            for sub in itertools.combinations(gone, len(gone) - 1):
                if sub:
                    cofaces[sub].discard(gone)


# -- random complex generator ------------------------------------------------------


def random_facets(rng: random.Random, max_vertices: int = 7) -> List[Tuple[int, ...]]:
    """Random nonempty facet list with dense vertex ids."""
    n = rng.randint(1, max_vertices)
    count = rng.randint(1, 2 * n)
    facets = []
    for _ in range(count):
        size = rng.randint(1, min(n, 4))
        facets.append(tuple(sorted(rng.sample(range(n), size))))
    used = sorted({v for f in facets for v in f})
    relabel = {v: i for i, v in enumerate(used)}
    return [tuple(relabel[v] for v in f) for f in facets]


def character_counts_mobius(moduli: Sequence[int], images: Sequence[Sequence[int]]
                            ) -> Dict[int, int]:
    """Characters of the group Q generated by the images, counted per support
    (the bit mask of the vertices whose image a character does not send to
    1), by Moebius inversion over sets U of vertices with nonzero image:
    N(T) = sum over U within T of (-1)^|T - U| |Q| / |<images of v not in U>|,
    since |Q| / |H| characters are trivial on a subgroup H.  Subgroup orders
    come from deck_group_bfs; supports with no character are left out."""
    order = len(deck_group_bfs(moduli, images))
    S = [v for v, img in enumerate(images) if any(x % k for x, k in zip(img, moduli))]
    trivial_on = {}
    for r in range(len(S) + 1):
        for U in itertools.combinations(S, r):
            outside = [img for v, img in enumerate(images) if v not in U]
            trivial_on[U] = order // len(deck_group_bfs(moduli, outside))
    counts = {}
    for T in trivial_on:
        n = sum((-1) ** (len(T) - r) * trivial_on[U]
                for r in range(len(T) + 1) for U in itertools.combinations(T, r))
        if n:
            counts[sum(1 << v for v in T)] = n
    return counts
