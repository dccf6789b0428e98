"""Elementary collapses of simplicial complexes.

A face sigma is free when it has exactly one coface of codimension one (this
forces it to have no larger cofaces at all).  Removing sigma together with
that coface is an elementary collapse and preserves homotopy type; a complex
that collapses all the way down to one vertex is contractible.

Collapsibility is order-sensitive, so the search runs a deterministic greedy
pass (highest dimension first, lexicographic within a dimension) and then up
to `budget` restarts with seeded random priorities.  Failure of every attempt
is not a proof of non-collapsibility; successful sequences are returned as
replayable certificates.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .simplicial import Simplex, SimplicialComplex, as_simplex


@dataclass(frozen=True)
class CollapseSequence:
    """Replayable witness of a collapse to a single vertex.

    pairs[i] = (free face, its unique coface) in removal order; seed records
    which restart found it (None for the deterministic pass).
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "CollapseSequence":
        pairs = tuple((as_simplex(s), as_simplex(t)) for s, t in data["pairs"])
        return CollapseSequence(pairs=pairs, seed=data.get("seed"))

    @staticmethod
    def from_json(text: str) -> "CollapseSequence":
        return CollapseSequence.from_json_dict(json.loads(text))


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


def _attempt(x: SimplicialComplex, seed: Optional[int]) -> Tuple[bool, CollapseSequence]:
    """One greedy pass: (whether it left one vertex, the pairs it removed).
    Its heap starts with every free face, so it removes none iff x has none."""
    state = _State(x.all_faces())
    if seed is None:
        key = {f: (-len(f), f) for f in state.faces}
    else:
        order = sorted(state.faces)
        random.Random(seed).shuffle(order)
        key = {f: (i,) for i, f in enumerate(order)}

    heap = [(key[f], f) for f in state.faces if state.is_free(f)]
    heapq.heapify(heap)
    pairs: List[Tuple[Simplex, Simplex]] = []
    while heap:
        _, sigma = heapq.heappop(heap)
        if not state.is_free(sigma):
            continue
        tau = next(iter(state.cofaces[sigma]))
        for sub in state.remove_pair(sigma, tau):
            if state.is_free(sub):
                heapq.heappush(heap, (key[sub], sub))
        pairs.append((sigma, tau))
    return state.at_single_vertex(), CollapseSequence(pairs=tuple(pairs), seed=seed)


def collapse(x: SimplicialComplex, budget: int = 64) -> Optional[CollapseSequence]:
    """Search for a collapse of x to a single vertex.

    Runs the deterministic pass and then `budget` seeded restarts; returns the
    first successful sequence, or None when every attempt gets stuck.  None
    does not certify non-collapsibility.  The restarts are skipped when x has
    no free face, which the deterministic pass shows by removing no pair:
    then every attempt is stuck at its first step, whatever the order, and
    fails exactly as the deterministic pass did.
    """
    if x.is_empty():
        return None
    for seed in itertools.chain([None], range(budget)):
        done, found = _attempt(x, seed)
        if done:
            return found
        if not found.pairs:
            return None
    return None


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
