"""Elementary collapses of simplicial complexes.

A face sigma is free when it has exactly one coface of codimension one (this
forces it to have no larger cofaces at all).  Removing sigma together with
that coface is an elementary collapse and preserves homotopy type; a complex
that collapses all the way down to one vertex is contractible.

The search is one deterministic greedy pass: highest dimension first,
lexicographic within a dimension.  In dimension at most 2 the order does not
matter (Tancer, Discrete Comput. Geom. 2016):

- A triangle that gets a free edge keeps it until the triangle itself is
  removed: only removing a triangle through that edge shrinks the edge's
  coface set, and a (vertex, edge) step needs a maximal edge, so it never
  takes a free edge from a triangle.  A removable triangle stays removable,
  so every maximal pass removes the same triangles and leaves the same
  2-core.
- With the 2-core empty, what is left is a graph.  It collapses to a vertex
  exactly when it is a tree, and then every order of leaf removals does.

So a pass that gets stuck proves that a complex of dimension at most 2 does
not collapse.  In dimension 3 and up the order can matter, and one pass is
only a sufficient test.  Successful sequences are replayable certificates.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .simplicial import Simplex, SimplicialComplex, as_simplex


@dataclass(frozen=True)
class CollapseSequence:
    """Replayable record of a collapse pass.

    pairs[i] = (free face, its unique coface) in removal order.  seed is
    always None, the one deterministic pass; it stays in the serialized
    form so that certificates keep their shape.
    """

    pairs: Tuple[Tuple[Simplex, Simplex], ...]
    seed: Optional[int] = None

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "pairs": [[list(s), list(t)] for s, t in self.pairs],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "CollapseSequence":
        pairs = tuple((as_simplex(s), as_simplex(t)) for s, t in data["pairs"])
        return CollapseSequence(pairs=pairs, seed=data.get("seed"))


class _State:
    """Current face set with codimension-one coface counts."""

    __slots__ = ("faces", "cofaces")

    def __init__(self, faces: Iterable[Simplex]):
        self.faces: Set[Simplex] = set(faces)
        self.cofaces: Dict[Simplex, Set[Simplex]] = {f: set() for f in self.faces}
        for f in self.faces:
            if len(f) >= 2:
                for i in range(len(f)):
                    self.cofaces[f[:i] + f[i + 1:]].add(f)

    def is_free(self, sigma: Simplex) -> bool:
        return sigma in self.faces and len(self.cofaces[sigma]) == 1

    def remove_pair(self, sigma: Simplex, tau: Simplex) -> List[Simplex]:
        """Remove the pair; return the faces whose coface set shrank."""
        touched: List[Simplex] = []
        for gone in (tau, sigma):
            self.faces.discard(gone)
            for i in range(len(gone)):
                sub = gone[:i] + gone[i + 1:]
                if sub and gone in self.cofaces.get(sub, ()):
                    self.cofaces[sub].discard(gone)
                    touched.append(sub)
        return touched

    def at_single_vertex(self) -> bool:
        return len(self.faces) == 1 and len(next(iter(self.faces))) == 1


def collapse(x: SimplicialComplex) -> CollapseSequence:
    """One greedy collapse pass over x; returns the pairs it removed.

    The heap starts with every free face, and a face whose coface set
    shrinks is pushed again when it becomes free, so the pass stops only
    when no face is free.  reaches_vertex tells whether it left one vertex;
    on the empty complex the pass is empty and does not.
    """
    state = _State(x.all_faces())
    heap = [(-len(f), f) for f in state.faces if state.is_free(f)]
    heapq.heapify(heap)
    pairs: List[Tuple[Simplex, Simplex]] = []
    while heap:
        _, sigma = heapq.heappop(heap)
        if not state.is_free(sigma):
            continue
        tau = next(iter(state.cofaces[sigma]))
        for sub in state.remove_pair(sigma, tau):
            if state.is_free(sub):
                heapq.heappush(heap, (-len(sub), sub))
        pairs.append((sigma, tau))
    return CollapseSequence(pairs=tuple(pairs))


def reaches_vertex(x: SimplicialComplex, seq: CollapseSequence) -> bool:
    """Whether the pass seq = collapse(x) left one vertex: each pair removes
    two of x's faces, and one face is left."""
    return 2 * len(seq) == sum(len(x.faces(k)) for k in range(x.dim + 1)) - 1


def replay_collapse(x: SimplicialComplex, seq: CollapseSequence) -> Tuple[bool, str]:
    """Replay a recorded sequence, checking every step's legality.

    Returns (ok, reason).  Legal means: both faces present, tau = sigma plus
    one vertex, tau the only coface of sigma at the time of removal, and a
    single vertex left at the end.
    """
    state = _State(x.all_faces())
    for step, (sigma, tau) in enumerate(seq.pairs):
        if sigma not in state.faces or tau not in state.faces:
            return False, f"step {step}: {sigma} or {tau} is not a current face"
        if len(tau) != len(sigma) + 1 or not set(sigma) <= set(tau):
            return False, f"step {step}: {tau} does not cover {sigma}"
        if state.cofaces[sigma] != {tau}:
            return False, f"step {step}: {sigma} is not free"
        state.remove_pair(sigma, tau)
    if state.at_single_vertex():
        return True, f"collapsed to vertex {next(iter(state.faces))[0]} in {len(seq.pairs)} steps"
    return False, f"{len(state.faces)} faces remain after replay"
