"""Seeded input generator for the benchmark workloads.

    python3 perfbench/gen.py --seed 7 --out DIR

writes, for every workload under DIR/<workload>, facet-list JSON files (and
for `verdicts` the embedding witness) plus a `jobs.json` that lists the jobs
in run order; for `covers_many` the job list is the spec list itself.  The
run itself calls generate() for its one workload.  The same seed
gives byte-identical files.  Expected outputs are never written: the checkers
in check.py derive them from the mathematics at check time.

Named complexes are built through the raag package (fixtures, subdivision,
cone), exactly as a user would produce their input files; the join facet list,
the annulus-in-disk witness, the random clique complexes and the cover specs
are written by this module directly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verdicts", "covers_many", "covers_large")

# flag members of the standard fixture menu; acceptance 1 cones over each
CONE_BASES = (
    ("simplex(2)", "simplex", 2, None), ("simplex(3)", "simplex", 3, None),
    ("cycle(4)", "cycle", 4, None), ("cycle(5)", "cycle", 5, None),
    ("cycle(6)", "cycle", 6, None), ("path(4)", "path", 4, None),
    ("discrete(2)", "discrete", 2, None), ("discrete(3)", "discrete", 3, None),
    ("octahedron", "octahedron", None, None), ("icosahedron", "icosahedron", None, None),
    ("rp2_flag", "rp2_flag", None, None), ("moore_flag(2)", "moore_flag", None, 2),
    ("moore_flag(3)", "moore_flag", None, 3), ("disk_flag", "disk_flag", None, None),
    ("dunce_flag", "dunce_flag", None, None),
)
# jobs of a second or more, run once per run instead of once per round
ONCE = ("rp2_flag * moore_flag(3)", "sd2(rp2_flag)", "sd(dunce_flag)")
RANDOM_COMPLEXES = 66        # with the 34 named jobs, 100 verdict jobs a pass
COVERS_MANY_INDEX_BOUND = 250
COVERS_LARGE = (             # (base, k): cover of index k^n at p = 2 and p = 3
    ("cycle(4)", 6),
    ("octahedron", 3),
    ("cycle(5)", 4),
)
PRIMES_LARGE = (2, 3)


def _facet_doc(name: str, facets: Sequence[Sequence[int]]) -> dict:
    facets = sorted(tuple(sorted(f)) for f in facets)
    n = 1 + max(v for f in facets for v in f)
    return {"name": name, "vertices": n, "facets": [list(f) for f in facets]}


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def _fixture_facets(name: str, n=None, q=None):
    from raag import fixture
    return fixture(name, n=n, q=q).facets


# -- verdicts ------------------------------------------------------------------


def _polygon_disk_facets(m: int) -> List[Tuple[int, ...]]:
    """Disk on boundary m-gon 0..m-1, parallel ring m..2m-1 and center 2m."""
    c = 2 * m
    out = []
    for i in range(m):
        j = (i + 1) % m
        out += [(i, j, m + i), (j, m + i, m + j), (c, m + i, m + j)]
    return out


def _join_facets(a, b) -> List[Tuple[int, ...]]:
    off = 1 + max(v for f in a for v in f)
    return [tuple(fa) + tuple(v + off for v in fb) for fa in a for fb in b]


def _maximal_cliques(n: int, adj: Sequence[int]) -> List[Tuple[int, ...]]:
    """Maximal cliques of a graph on <= 16 vertices given as adjacency bitmasks."""
    cliques = []

    def grow(clique: int, cand: int, excluded: int) -> None:
        if not cand and not excluded:
            cliques.append(tuple(v for v in range(n) if clique >> v & 1))
            return
        for v in range(n):
            if cand >> v & 1:
                grow(clique | 1 << v, cand & adj[v], excluded & adj[v])
                cand &= ~(1 << v)
                excluded |= 1 << v

    grow(0, (1 << n) - 1, 0)
    return cliques


def random_clique_complex(rng: random.Random, n: int, dim: int) -> List[Tuple[int, ...]]:
    """Clique complex of a random graph on n vertices with clique number dim + 1
    (rejection sampling of G(n, p)); isolated vertices stay as points."""
    p = {1: 0.25, 2: 0.45, 3: 0.6}[dim]
    while True:
        adj = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        cliques = _maximal_cliques(n, adj)
        if max(map(len, cliques)) == dim + 1:
            return cliques


def gen_verdicts(seed: int, out: Path) -> List[dict]:
    from raag import barycentric_subdivision, cone, fixture

    def sd(x):
        return barycentric_subdivision(x).complex

    named: List[Tuple[str, object]] = [
        ("cycle(5)", fixture("cycle", n=5).facets),
        ("octahedron", fixture("octahedron").facets),
        ("rp2_flag", fixture("rp2_flag").facets),
        ("moore_flag(3)", fixture("moore_flag", q=3).facets),
        ("sd(octahedron)", sd(fixture("octahedron")).facets),
        ("sd(icosahedron)", sd(fixture("icosahedron")).facets),
        ("path(4)", fixture("path", n=4).facets),
        ("star(4)", [(0, 1), (0, 2), (0, 3)]),
    ]
    named += [(f"simplex({n})", fixture("simplex", n=n).facets) for n in range(6)]
    named.append(("disk_flag", fixture("disk_flag").facets))
    named += [(f"cone({label})", cone(fixture(nm, n=n, q=q)).facets)
              for label, nm, n, q in CONE_BASES]
    named.append(("rp2_flag * moore_flag(3)",
                  _join_facets(fixture("rp2_flag").facets,
                               fixture("moore_flag", q=3).facets)))
    named.append(("sd2(rp2_flag)", sd(sd(fixture("rp2_flag"))).facets))
    named.append(("sd(dunce_flag)", sd(fixture("dunce_flag")).facets))

    jobs = []
    for i, (name, facets) in enumerate(named):
        path = out / f"v{i:03d}.json"
        _write(path, _facet_doc(name, facets))
        jobs.append({"name": name, "file": path.name})
        if name in ONCE:
            jobs[-1]["once"] = True

    disk = _polygon_disk_facets(6)
    annulus = [f for f in disk if 12 not in f]
    _write(out / "annulus.json", _facet_doc("annulus", annulus))
    _write(out / "annulus_witness.json",
           {"supercomplex": _facet_doc("disk", disk), "embedding": list(range(12))})
    jobs.append({"name": "annulus+witness", "file": "annulus.json",
                 "witness": "annulus_witness.json"})

    rng = random.Random(seed)
    for i in range(RANDOM_COMPLEXES):  # stratified: 6-8 vertices, dimension 1-3
        name = f"random-{i:02d}"
        path = out / f"r{i:03d}.json"
        facets = random_clique_complex(rng, n=6 + i % 3, dim=1 + i // 3 % 3)
        _write(path, _facet_doc(name, facets))
        jobs.append({"name": name, "file": path.name})
    return jobs


# -- covers ----------------------------------------------------------------------


def canonical_moduli(n_parts: int, limit: int) -> List[Tuple[int, ...]]:
    """Divisibility chains a_1 | a_2 | ... of length n_parts with product <= limit:
    every finite abelian group with at most n_parts cyclic factors, once."""
    out = []

    def walk(prefix, budget):
        if len(prefix) == n_parts:
            out.append(tuple(prefix))
            return
        last = prefix[-1] if prefix else 1
        for m in range(last, budget + 1, last):
            walk(prefix + [m], budget // m)

    walk([], limit)
    return out


def unimodular(rng: random.Random, n: int, steps: int = 4) -> List[List[int]]:
    """Random n x n integer matrix of determinant +-1 (elementary row operations)."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.25:
            m[i], m[j] = m[j], m[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def gen_covers_many(seed: int, out: Path) -> List[dict]:
    """Every group shape of index <= the bound for F_2 and F_3, each reached by
    a surjection that sends the generators to the rows of a seeded unimodular
    matrix, so the index is the full product of the moduli on every seed."""
    rng = random.Random(seed)
    jobs = []
    for n in (2, 3):
        for moduli in canonical_moduli(n, COVERS_MANY_INDEX_BOUND):
            u = unimodular(rng, n)
            images = [[x % k for x, k in zip(row, moduli)] for row in u]
            jobs.append({"name": f"F{n}:{'x'.join(map(str, moduli))}", "n": n,
                         "moduli": list(moduli), "images": images})
    return jobs


def gen_covers_large(seed: int, out: Path) -> List[dict]:
    """The bases as the fixtures label them; the seed only orders the jobs
    (see generate), so every seed does the same work."""
    bases = {"cycle(4)": _fixture_facets("cycle", n=4),
             "octahedron": _fixture_facets("octahedron"),
             "cycle(5)": _fixture_facets("cycle", n=5)}
    jobs = []
    for i, (base, k) in enumerate(COVERS_LARGE):
        path = out / f"base{i}.json"
        _write(path, _facet_doc(base, bases[base]))
        for p in PRIMES_LARGE:
            jobs.append({"name": f"{base} k={k} p={p}", "base": base,
                         "file": path.name, "k": k, "prime": p})
    return jobs


GENERATORS = {"verdicts": gen_verdicts, "covers_many": gen_covers_many,
              "covers_large": gen_covers_large}


def generate(workload: str, seed: int, out: Path) -> List[dict]:
    """Write one workload's inputs under out (created anew) and return its jobs.

    The job order is a seeded shuffle, so that jobs of similar size are spread
    over the pass instead of meeting the same stretch of machine speed."""
    out.mkdir(parents=True, exist_ok=True)
    for old in out.glob("*.json"):
        old.unlink()
    jobs = GENERATORS[workload](seed, out)
    random.Random(f"order {seed}").shuffle(jobs)
    _write(out / "jobs.json", jobs)
    return jobs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the inputs")
    ns = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for w in WORKLOADS:
        jobs = generate(w, ns.seed, Path(ns.out) / w)
        print(f"{w}: {len(jobs)} jobs in {Path(ns.out) / w}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
