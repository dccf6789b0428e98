"""Finite abstract simplicial complexes and the constructions used downstream.

Simplices are sorted tuples of dense vertex ids 0..n-1.  A complex is stored by
its facets (maximal faces); faces are enumerated lazily per dimension and the
canonical order everywhere is dimension-major, lexicographic within a dimension.
All values are immutable and all constructions are pure functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import MalformedComplexError, QuotientDegenerateError
from .linalg import convolve

Simplex = Tuple[int, ...]


def as_simplex(vertices: Iterable[int]) -> Simplex:
    """Sorted tuple of distinct vertex ids; rejects non-ints (before sorting) and duplicates."""
    vs = list(vertices)
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise MalformedComplexError(f"vertex ids must be nonnegative integers, got {v!r}")
    vs.sort()
    if len(set(vs)) != len(vs):
        raise MalformedComplexError(f"duplicate vertices within a facet: {tuple(vs)}")
    return tuple(vs)


class SimplicialComplex:
    """Immutable complex determined by its facet set.

    Use from_facets() rather than the constructor; it canonicalizes input and
    absorbs non-maximal faces.
    """

    __slots__ = ("n_vertices", "facets", "name", "dim", "_faces",
                 "_face_index", "_flag", "_factors", "_parts", "_chain", "_rows")

    def __init__(self, n_vertices: int, facets: Tuple[Simplex, ...], name: str = ""):
        self.n_vertices = n_vertices
        self.facets = facets
        self.name = name
        self.dim = max((len(f) for f in facets), default=0) - 1  # -1 when empty
        self._faces: Dict[int, Tuple[Simplex, ...]] = {}
        self._face_index: Dict[int, Dict[Simplex, int]] = {}
        # set by is_flag, on a join's factors too, so each is searched once
        self._flag: Optional[Tuple[bool, Optional[Simplex]]] = None
        # set by join_factors, with their vertex parts; () when the complex is
        # not a join of two or more factors, which every factor's own connected
        # complement makes it
        self._factors: Optional[Tuple["SimplicialComplex", ...]] = None
        self._parts: Tuple[Simplex, ...] = ()
        self._chain: Optional[object] = None  # set by homology.simplicial_chain_complex
        # filled by growth._rows_of: prime -> {bit mask T over the complex's
        # vertices: F_p betti numbers of its support complex of T}
        self._rows: Dict[int, Dict[int, Tuple[int, ...]]] = {}

    # -- basic queries ------------------------------------------------------

    def faces(self, k: int) -> Tuple[Simplex, ...]:
        """All k-faces in canonical (lexicographic) order."""
        if k < 0 or k > self.dim:
            return ()
        if k not in self._faces:
            seen = set()
            for f in self.facets:
                if len(f) > k:
                    seen.update(itertools.combinations(f, k + 1))
            self._faces[k] = tuple(sorted(seen))
        return self._faces[k]

    def face_index(self, k: int) -> Dict[Simplex, int]:
        """Face -> position in the canonical order of dimension k."""
        if k not in self._face_index:
            self._face_index[k] = {f: i for i, f in enumerate(self.faces(k))}
        return self._face_index[k]

    def all_faces(self) -> List[Simplex]:
        """Every nonempty face, dimension-major then lexicographic."""
        out: List[Simplex] = []
        for k in range(self.dim + 1):
            out.extend(self.faces(k))
        return out

    def has_face(self, s: Sequence[int]) -> bool:
        t = tuple(sorted(s))
        return t in self.face_index(len(t) - 1)

    def f_vector(self) -> Tuple[int, ...]:
        """(f_0, ..., f_dim).  The faces of a join are the unions of one face
        or the empty face per factor, so for a complex that join_factors
        splits (1, f_0, f_1, ...) is the convolution of its factors' and no
        face of the join is listed."""
        factors = join_factors(self)
        if len(factors) == 1:
            return tuple(len(self.faces(k)) for k in range(self.dim + 1))
        return convolve([(1,) + F.f_vector() for F in factors])[1:]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * fk for k, fk in enumerate(self.f_vector()))

    def is_empty(self) -> bool:
        return self.n_vertices == 0

    # -- equality / display --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.n_vertices == other.n_vertices
            and self.facets == other.facets
        )

    def __hash__(self):
        return hash((self.n_vertices, self.facets))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<SimplicialComplex{label} n={self.n_vertices} dim={self.dim} facets={len(self.facets)}>"


def from_facets(facets: Iterable[Iterable[int]], name: str = "",
                n_vertices: Optional[int] = None) -> SimplicialComplex:
    """Build a complex from a facet list.

    Vertex ids must be dense 0..n-1 (every id below the maximum occurs in some
    facet).  Duplicates are merged and non-maximal entries absorbed: a simplex
    is dropped exactly when a strictly larger listed simplex contains it, since
    distinct simplices of equal size never contain each other.  An empty facet
    list gives the empty complex.
    """
    simplices = sorted({as_simplex(f) for f in facets}, key=lambda s: (len(s), s))
    if simplices and len(simplices[0]) == 0:
        raise MalformedComplexError("the empty simplex cannot be listed as a facet")
    used = set()
    for s in simplices:
        used.update(s)
    n = (max(used) + 1) if used else 0
    if len(used) != n:  # counted, not listed: the first ten lie below len(used) + 10
        first = list(itertools.islice((v for v in range(n) if v not in used), 10))
        raise MalformedComplexError(
            f"vertex ids must be dense 0..{n - 1}; {n - len(used)} missing, the first {first}")
    if n_vertices is not None and n_vertices != n:
        raise MalformedComplexError(f"declared vertex count {n_vertices} != inferred {n}")
    # Walk by decreasing size.  containing[v] lists the kept facets of strictly
    # larger size through v; a facet containing s is in the list of every vertex
    # of s, so the shortest such list is the only one to search.  A size's kept
    # facets are indexed only once a smaller size follows.  The largest size is
    # kept whole: no strictly larger simplex exists to contain it, and it is
    # often the whole input (a pure complex, such as a join of pure factors).
    containing: List[List[frozenset]] = [[] for _ in range(n)]
    maximal: List[Simplex] = []
    kept: List[Simplex] = []
    for _, same_size in itertools.groupby(reversed(simplices), key=len):
        if not maximal:
            kept = list(same_size)
        else:
            for f in kept:
                fs = frozenset(f)
                for v in f:
                    containing[v].append(fs)
            kept = [s for s in same_size
                    if not any(m.issuperset(s) for m in min((containing[v] for v in s), key=len))]
        maximal.extend(kept)
    maximal.reverse()
    return SimplicialComplex(n, tuple(maximal), name=name)


def complex_to_json_dict(x: SimplicialComplex) -> dict:
    """Canonical facet-list form: {"name": ..., "vertices": n, "facets": [...]}."""
    out = {"vertices": x.n_vertices, "facets": [list(f) for f in x.facets]}
    if x.name:
        out["name"] = x.name
    return out


def complex_from_json_dict(data: dict) -> SimplicialComplex:
    """Inverse of complex_to_json_dict, revalidating through from_facets."""
    if not isinstance(data, dict) or "facets" not in data:
        raise MalformedComplexError("complex JSON must be an object with a facets list")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise MalformedComplexError("complex name must be a string")
    facets = data["facets"]
    if not isinstance(facets, list) or any(not isinstance(f, list) for f in facets):
        raise MalformedComplexError("facets must be a list of vertex lists")
    n_vertices = data.get("vertices")
    if n_vertices is not None and type(n_vertices) is not int:
        raise MalformedComplexError("vertex count must be an integer")
    return from_facets(facets, name=name, n_vertices=n_vertices)


# -- flag structure ----------------------------------------------------------


def _adjacency(x: SimplicialComplex) -> List[set]:
    """Neighbour sets of the 1-skeleton, indexed by vertex."""
    adj: List[set] = [set() for _ in range(x.n_vertices)]
    for u, v in x.faces(1):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _maximal_cliques(x: SimplicialComplex) -> List[Simplex]:
    """Maximal cliques of the 1-skeleton, isolated vertices included.

    Bron-Kerbosch with Tomita pivoting (Tomita-Tanaka-Takahashi, TCS 2006): a
    frame grows the clique R by one vertex of its candidates P at a time, and
    moves the vertices it has branched on to the excluded set X.  R is maximal
    when both P and X are empty.  A frame branches only on the candidates that
    are not neighbours of a pivot u, chosen in P | X to have the most candidate
    neighbours: a clique that adds only neighbours of u can still take u, so it
    is not maximal.  Frames live on a list, so the clique size is not limited
    by the recursion limit.  The empty graph has no maximal clique.
    """
    adj = _adjacency(x)
    cliques: List[Simplex] = []
    if not adj:
        return cliques
    stack = [_clique_frame((), set(range(len(adj))), set(), adj)]
    while stack:
        clique, cand, excl, branch = stack[-1]
        if not branch:
            stack.pop()
            continue
        v = branch.pop()
        grown = clique + (v,)
        cand_v = cand & adj[v]
        excl_v = excl & adj[v]
        cand.remove(v)
        excl.add(v)
        if len(cand_v) > 1:
            stack.append(_clique_frame(grown, cand_v, excl_v, adj))
        elif cand_v:  # one candidate w: what its frame would find, without building it
            (w,) = cand_v
            if not excl_v & adj[w]:
                cliques.append(tuple(sorted(grown + (w,))))
        elif not excl_v:
            cliques.append(tuple(sorted(grown)))
    return cliques


def _clique_frame(clique: Simplex, cand: set, excl: set, adj: List[set]):
    pivot = max(itertools.chain(cand, excl), key=lambda u: len(cand & adj[u]))
    return clique, cand, excl, list(cand - adj[pivot])


def is_flag(x: SimplicialComplex) -> Tuple[bool, Optional[Simplex]]:
    """Whether every clique of the 1-skeleton spans a face.

    Returns (True, None) or (False, w) where w is a minimal non-face with
    pairwise adjacent vertices (an "empty simplex"), canonical smallest by
    (size, lex).  The answer is cached on the complex, which is immutable.

    A complex that join_factors splits is flag iff each factor is, since
    the cliques of a join are the unions of cliques of its factors; so a
    join is checked by clique searches of its factors, whose maximal cliques
    number far fewer than the join's (their product), and each factor's
    answer is cached on it; equal factors are one object (join_factors), so
    the octahedron, (S^0)^{*3}, runs one clique search of S^0.  A minimal
    non-face of a join lies in one factor (its restriction to each part is
    a face or the whole of it), and the part tables are increasing, so the
    canonical witness of a join is the smallest of its factors' witnesses
    mapped back through the parts.  A complex that does not split is
    searched whole.
    """
    if x._flag is None:
        x._flag = _flag_check(x)
    return x._flag


def _flag_check(x: SimplicialComplex) -> Tuple[bool, Optional[Simplex]]:
    factors = join_factors(x)
    if len(factors) == 1:
        return _clique_check(x)
    # a factor is its own only factor, and one repeated in the join is one
    # object, whose answer is_flag caches: each is searched once
    witnesses = [tuple(part[v] for v in witness)
                 for part, (flag, witness) in zip(join_parts(x), map(is_flag, factors))
                 if not flag]
    if not witnesses:
        return True, None
    return False, min(witnesses, key=lambda s: (len(s), s))


def _join_split(x: SimplicialComplex, parts: Sequence[Tuple[int, ...]]
                ) -> Optional[Tuple[SimplicialComplex, ...]]:
    """The complexes induced on the parts, relabeled as induced_subcomplex
    does, when x is their join; None otherwise.

    One pass restricts every facet to every part.  If each facet meets each
    part and the facet count is the product of the numbers of distinct
    restrictions, the map from facets to tuples of restrictions, injective
    since a facet is the union of its restrictions, is onto: every union of
    one restriction per part is a facet.  Then the restrictions of a part
    form an antichain (a smaller one would give a smaller facet) and x is the
    join of the complexes they span.  A facet missing a part is not counted
    as the empty restriction: the product would then hold for non-joins.
    Parts with the same restrictions get one complex, so equal factors are
    one object and share its cached faces, flag check and chain complex.
    """
    where: List[Tuple[int, int]] = [(0, 0)] * x.n_vertices
    for i, part in enumerate(parts):
        for j, v in enumerate(part):
            where[v] = (i, j)
    restrictions = [set() for _ in parts]
    for f in x.facets:
        pieces: List[List[int]] = [[] for _ in parts]
        for v in f:
            i, j = where[v]
            pieces[i].append(j)
        if not all(pieces):
            return None
        for seen, piece in zip(restrictions, pieces):
            seen.add(tuple(piece))
    if math.prod(len(seen) for seen in restrictions) != len(x.facets):
        return None
    keys = [frozenset(seen) for seen in restrictions]
    built = {key: from_facets(key) for key in dict.fromkeys(keys)}
    return tuple(built[key] for key in keys)


def _clique_check(x: SimplicialComplex) -> Tuple[bool, Optional[Simplex]]:
    # a maximal clique that is a face lies in a facet, which is a clique too,
    # so it is that facet
    facets = set(x.facets)
    witnesses = [_shrink_to_minimal_nonface(x, clique)
                 for clique in _maximal_cliques(x) if clique not in facets]
    if not witnesses:
        return True, None
    return False, min(witnesses, key=lambda s: (len(s), s))


def _shrink_to_minimal_nonface(x: SimplicialComplex, clique: Simplex) -> Simplex:
    # subsets of a skeleton clique are pairwise adjacent, so the first
    # (size, lex) subset that is a non-face with all proper subsets faces
    # is a minimal non-face
    for size in range(3, len(clique) + 1):
        for sub in itertools.combinations(clique, size):
            if x.has_face(sub):
                continue
            if all(x.has_face(b) for b in itertools.combinations(sub, size - 1)):
                return sub
    raise AssertionError("non-face clique without minimal non-face")


def flag_completion(x: SimplicialComplex) -> SimplicialComplex:
    """Clique complex of a graph (input must be at most 1-dimensional)."""
    if x.dim > 1:
        raise MalformedComplexError("flag_completion expects a graph (dimension <= 1)")
    if x.is_empty():
        return x
    return from_facets(_maximal_cliques(x), name=_derived_name(x, "flag"))


def complement_components(x: SimplicialComplex) -> List[Tuple[int, ...]]:
    """Vertex sets of the connected components of the complement graph.

    A graph search over the vertices not yet reached, without building the
    complement: the complement neighbours of u among them are unseen - adj[u].
    Each vertex left in unseen by that difference is charged to an edge at u,
    so the search is linear in vertices plus edges.  Parts come in increasing
    order of their smallest vertex.
    """
    n = x.n_vertices
    adj = _adjacency(x)
    unseen = set(range(n))
    parts: List[Tuple[int, ...]] = []
    for root in range(n):
        if root not in unseen:
            continue
        unseen.discard(root)
        part = [root]
        frontier = [root]
        while frontier:
            reached = unseen - adj[frontier.pop()]
            if reached:
                unseen -= reached
                part.extend(reached)
                frontier.extend(reached)
        parts.append(tuple(sorted(part)))
    return parts


def join_factors(x: SimplicialComplex) -> List[SimplicialComplex]:
    """The join factors of x, or [x] when x is not a join of two or more.

    The candidates are the subcomplexes induced on the connected components
    of the complement of the 1-skeleton, relabeled densely, and x splits
    when it is their join (_join_split).  A flag complex always is; another
    complex need not be (the hollow triangle's complement splits into three
    points, whose join is the solid triangle), and then it is its own only
    factor.  A factor's complement is a connected component, so a factor
    does not split again.  The factors are cached on the complex, which is
    immutable, with their vertex parts (join_parts): this is the only
    complement search.  Factors with equal facet lists are one object, so
    whatever is cached on a factor (faces, flag check, chain complex,
    support rows) or keyed by it is computed once.

    >>> from raag.fixtures import fixture
    >>> factors = join_factors(fixture("octahedron"))  # S^0 * S^0 * S^0
    >>> len(factors), len({id(f) for f in factors}), factors[0].facets
    (3, 1, ((0,), (1,)))
    """
    if x._factors is None:
        parts = complement_components(x)
        factors = _join_split(x, parts) if len(parts) > 1 else None
        x._factors = factors or ()
        x._parts = tuple(parts) if factors else ()
        for f in x._factors:
            f._factors = ()
    return list(x._factors) or [x]


def join_parts(x: SimplicialComplex) -> List[Simplex]:
    """The vertex parts of x's join factors, from the one complement search
    of join_factors: vertex j of join_factors(x)[i] is vertex parts[i][j] of
    x.  Parts may interleave (C_4's are (0, 2) and (1, 3)); a complex that
    does not split is its own only part, [all vertices]."""
    if x._factors is None:  # the search runs inside join_factors, and only there
        join_factors(x)
    return list(x._parts) or [tuple(range(x.n_vertices))]


def induced_subcomplex(x: SimplicialComplex, vertices: Sequence[int]) -> Tuple[SimplicialComplex, Tuple[int, ...]]:
    """Subcomplex induced on a vertex subset, relabeled densely.

    Returns (complex, table) with table[new_id] = old_id.
    """
    keep = sorted(set(vertices))
    old_to_new = {v: i for i, v in enumerate(keep)}
    keep_set = set(keep)
    facets = set()
    for f in x.facets:
        inter = tuple(old_to_new[v] for v in f if v in keep_set)
        if inter:
            facets.add(inter)
    sub = from_facets(facets)
    return sub, tuple(keep)


# -- constructions -----------------------------------------------------------


@dataclass(frozen=True)
class Subdivision:
    """Barycentric subdivision together with its relabeling table.

    vertex_simplex[i] is the simplex of the source complex sitting at the new
    vertex i; the table follows the canonical (dimension-major) order, so the
    first f_0 entries are the original vertices as singletons.
    """

    complex: SimplicialComplex
    vertex_simplex: Tuple[Simplex, ...]


def barycentric_subdivision(x: SimplicialComplex) -> Subdivision:
    """Flags of the face poset; facets are maximal chains inside facets."""
    cells = x.all_faces()
    index = {s: i for i, s in enumerate(cells)}
    facets = []
    for top in x.facets:
        for chain in _full_chains(top):
            facets.append(tuple(sorted(index[s] for s in chain)))
    return Subdivision(from_facets(facets, name=_derived_name(x, "sd")), tuple(cells))

def _full_chains(top: Simplex) -> Iterable[List[Simplex]]:
    # maximal chains s_0 < s_1 < ... < top with |s_i| = i+1: orderings of top
    for perm in itertools.permutations(top):
        yield [tuple(sorted(perm[: i + 1])) for i in range(len(perm))]


def cone(x: SimplicialComplex) -> SimplicialComplex:
    """Join with one fresh apex; the apex is the last vertex id.

    The cone over the empty complex is a single point.
    """
    apex = x.n_vertices
    if x.is_empty():
        return from_facets([[0]], name=_derived_name(x, "cone"))
    facets = [f + (apex,) for f in x.facets]
    return from_facets(facets, name=_derived_name(x, "cone"))


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; b's vertices are shifted up by a.n_vertices."""
    if a.is_empty():
        return b
    if b.is_empty():
        return a
    off = a.n_vertices
    facets = [fa + tuple(v + off for v in fb) for fa in a.facets for fb in b.facets]
    name = f"({a.name or '?'})*({b.name or '?'})" if (a.name or b.name) else ""
    return from_facets(facets, name=name)


def simplicial_quotient(x: SimplicialComplex, vertex_map: Sequence[int]) -> SimplicialComplex:
    """Image complex under a vertex map given as a table over 0..n-1.

    The map must be injective on every simplex (checked on facets; violating
    simplices are reported so the caller can subdivide first) and onto a
    dense range, which from_facets checks on the image of the facets.
    """
    if len(vertex_map) != x.n_vertices:
        raise MalformedComplexError(
            f"vertex map length {len(vertex_map)} != vertex count {x.n_vertices}")
    for f in x.facets:
        images = [vertex_map[v] for v in f]
        if len(set(images)) != len(images):
            raise QuotientDegenerateError(
                f"simplex {f} degenerates under the vertex map; subdivide first")
    facets = [[vertex_map[v] for v in f] for f in x.facets]
    return from_facets(facets, name=_derived_name(x, "quot"))


def _derived_name(x: SimplicialComplex, op: str) -> str:
    return f"{op}({x.name})" if x.name else ""
