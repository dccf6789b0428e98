"""Output checkers, independent of the raag engine.

Nothing here imports raag.  Expected values come from the mathematics of each
input, computed with exact integers and Fractions: a verdict table with one
reason per row, Euler characteristics counted from the facet lists,
dense-matrix homology from tests/oracles.py, a free-face replay of collapse
certificates written here, and the closed forms of cover homology.  Each
check_* function returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402  (dense reference implementations, no raag imports)

POSITIVE, ZERO, UNDETERMINED = "PositiveEntropy", "ZeroEntropy", "Undetermined"
CERT_TOP, CERT_COMPLEMENTARY = "TopCohomologyNonzero", "ComplementaryVanishing"
CERT_COLLAPSE, CERT_WITNESS = "CollapsibleSelf", "EmbeddingWitness"
ORACLE_FACE_LIMIT = 400  # dense-matrix homology only for complexes this small

_S2 = "a triangulated 2-sphere: reduced H^2 = Z"
_RP2 = "RP^2: H_1 = Z/2, so H^2 = Ext(Z/2, Z) = Z/2"
_CONTRACTIBLE = "contractible of dimension {d} != 2: top cohomology vanishes"
VERDICT_TABLE: Dict[str, Tuple[str, str]] = {
    "cycle(5)": (POSITIVE, "a circle: reduced H^1 = Z"),
    "octahedron": (POSITIVE, _S2),
    "rp2_flag": (POSITIVE, _RP2),
    "moore_flag(3)": (POSITIVE, "mod-3 Moore space: H_1 = Z/3, so H^2 = Z/3"),
    "sd(octahedron)": (POSITIVE, _S2),
    "sd(icosahedron)": (POSITIVE, _S2),
    "sd2(rp2_flag)": (POSITIVE, _RP2),
    "path(4)": (ZERO, _CONTRACTIBLE.format(d=1)),
    "star(4)": (ZERO, _CONTRACTIBLE.format(d=1)),
    "simplex(0)": (ZERO, _CONTRACTIBLE.format(d=0)),
    "simplex(1)": (ZERO, _CONTRACTIBLE.format(d=1)),
    "simplex(2)": (ZERO, "a 2-simplex collapses to a vertex"),
    "simplex(3)": (ZERO, _CONTRACTIBLE.format(d=3)),
    "simplex(4)": (ZERO, _CONTRACTIBLE.format(d=4)),
    "simplex(5)": (ZERO, _CONTRACTIBLE.format(d=5)),
    "disk_flag": (ZERO, "a subdivided triangle: a disk that collapses to a vertex"),
    "rp2_flag * moore_flag(3)": (
        ZERO, "H~(A*B) is H~(A) (x) H~(B) shifted plus Tor; with H~ = Z/2 and Z/3 "
              "in degree 1 both vanish, so the 5-dimensional join is acyclic"),
    "sd(dunce_flag)": (
        UNDETERMINED, "contractible with H^2 = 0 in dimension 2, but every edge lies "
                      "in two or more triangles, so no collapse starts; no witness given"),
    "annulus+witness": (
        ZERO, "an annulus has H^2 = 0 and the witness embeds it in a collapsible disk"),
}
CONE_REASON = "a cone collapses onto its apex"


# -- complexes from facet lists -------------------------------------------------


def all_faces(facets: Sequence[Sequence[int]]) -> Set[Tuple[int, ...]]:
    faces: Set[Tuple[int, ...]] = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, k))
    return faces


def euler_characteristic(faces: Set[Tuple[int, ...]]) -> int:
    return sum((-1) ** (len(s) - 1) for s in faces)


def dimension(facets) -> int:
    return max(len(f) for f in facets) - 1


def replay_collapse(facets, pairs) -> Optional[str]:
    """Replay (free face, coface) pairs; None when they collapse to one vertex.

    A face is free when exactly one face of one more vertex contains it; in a
    complex closed under faces that also rules out larger cofaces.
    """
    faces = all_faces(facets)
    up: Dict[Tuple[int, ...], int] = dict.fromkeys(faces, 0)
    for s in faces:
        if len(s) > 1:
            for sub in itertools.combinations(s, len(s) - 1):
                up[sub] += 1
    for step, (sigma, tau) in enumerate(pairs):
        sigma, tau = tuple(sigma), tuple(tau)
        if sigma not in faces or tau not in faces:
            return f"step {step}: {sigma} or {tau} is not a current face"
        if len(tau) != len(sigma) + 1 or not set(sigma) < set(tau):
            return f"step {step}: {tau} is not a coface of {sigma}"
        if up[sigma] != 1:
            return f"step {step}: {sigma} has {up[sigma]} cofaces, not free"
        for gone in (tau, sigma):
            faces.discard(gone)
            if len(gone) > 1:
                for sub in itertools.combinations(gone, len(gone) - 1):
                    up[sub] -= 1
    if len(faces) != 1 or len(next(iter(faces))) != 1:
        return f"{len(faces)} faces remain, not a single vertex"
    return None


def has_no_free_face(facets) -> bool:
    """Pure 2-complex with every edge in at least two triangles."""
    if any(len(f) != 3 for f in facets):
        return False
    count: Dict[Tuple[int, ...], int] = {}
    for f in facets:
        for e in itertools.combinations(sorted(f), 2):
            count[e] = count.get(e, 0) + 1
    return all(c >= 2 for c in count.values())


def _is_prime(p) -> bool:
    return isinstance(p, int) and p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def _top_nonzero(betti, torsion, d) -> bool:
    return betti[d] > 0 or (d >= 1 and bool(torsion[d - 1]))


def _betti_fp_uct(betti, torsion, p: int, i: int) -> int:
    below = sum(1 for t in torsion[i - 1] if t % p == 0) if i >= 1 else 0
    return betti[i] + sum(1 for t in torsion[i] if t % p == 0) + below


# -- verdicts ---------------------------------------------------------------------


def expected_verdict(name: str, facets) -> Tuple[Optional[Set[str]], str, Optional[tuple]]:
    """(allowed outcomes, reason, oracle homology or None) for one verdict job."""
    if name in VERDICT_TABLE:
        outcome, reason = VERDICT_TABLE[name]
        return {outcome}, reason, None
    if name.startswith("cone("):
        return {ZERO}, CONE_REASON, None
    if not name.startswith("random-"):
        return None, f"no table row for {name!r}", None
    betti, torsion = oracles.brute_homology([tuple(f) for f in facets], reduced=True)
    d = dimension(facets)
    if _top_nonzero(betti, torsion, d):
        return {POSITIVE}, "dense oracle: top reduced cohomology is nonzero", (betti, torsion)
    if d != 2:
        return {ZERO}, f"dense oracle: top cohomology vanishes, dimension {d}", (betti, torsion)
    if any(betti) or any(torsion):
        return {UNDETERMINED}, ("dense oracle: H^2 = 0 but the complex is not acyclic, "
                                "so it has no collapse"), (betti, torsion)
    return {ZERO, UNDETERMINED}, ("dense oracle: acyclic 2-complex; zero needs a "
                                  "replayed collapse"), (betti, torsion)


def check_verdict(job: dict, doc: dict, output: dict,
                  witness: Optional[dict] = None) -> List[str]:
    """Check one `raag classify` result against its facet-list input."""
    name = job["name"]
    facets = doc["facets"]
    allowed, reason, oracle = expected_verdict(name, facets)
    if allowed is None:
        return [reason]
    try:
        v = json.loads(output["stdout"])
    except (KeyError, ValueError) as e:
        return [f"{name}: no verdict JSON ({e}); exit {output.get('rc')}"]
    problems = []
    outcome = v.get("outcome")
    if outcome not in allowed:
        problems.append(f"{name}: {outcome}, expected {sorted(allowed)} ({reason})")
    if output.get("rc") != (3 if outcome == UNDETERMINED else 0):
        problems.append(f"{name}: exit code {output.get('rc')} for {outcome}")
    d = dimension(facets)
    if v.get("d") != d or v.get("gdim") != d + 1:
        problems.append(f"{name}: d={v.get('d')} gdim={v.get('gdim')}, facets give d={d}")
        return problems
    h = v["homology"]
    betti, torsion = h["betti"], [tuple(t) for t in h["torsion"]]
    if not h["reduced"] or len(betti) != d + 1 or len(torsion) != d + 1:
        problems.append(f"{name}: homology is not a reduced table in degrees 0..{d}")
        return problems
    faces = all_faces(facets)
    chi = euler_characteristic(faces)
    alternating = sum((-1) ** i * b for i, b in enumerate(betti))
    if alternating != chi - 1:
        problems.append(f"{name}: sum (-1)^i b~_i = {alternating}, chi - 1 = {chi - 1}")
    if oracle is None and len(faces) <= ORACLE_FACE_LIMIT:
        oracle = oracles.brute_homology([tuple(f) for f in facets], reduced=True)
    if oracle is not None and (list(oracle[0]), [tuple(t) for t in oracle[1]]) != (betti, torsion):
        problems.append(f"{name}: homology {betti}/{torsion}, dense oracle {oracle}")
    if (outcome == POSITIVE) != _top_nonzero(betti, torsion, d):
        problems.append(f"{name}: outcome {outcome} disagrees with its own top homology")
    problems += _check_certificate(name, outcome, d, v, betti, torsion, facets, witness)
    if "replay FAILED" in output.get("stderr", ""):
        problems.append(f"{name}: the report says the certificate replay failed")
    return problems


def _check_certificate(name, outcome, d, v, betti, torsion, facets, witness) -> List[str]:
    cert = v.get("certificate")
    kind = cert and cert.get("kind")
    if outcome == UNDETERMINED:
        out = [] if cert is None else [f"{name}: Undetermined carries a certificate"]
        if d != 2:
            out.append(f"{name}: Undetermined outside dimension 2")
        elif name == "sd(dunce_flag)" and not has_no_free_face(facets):
            out.append(f"{name}: input has a free face, the table row does not apply")
        return out
    if outcome == POSITIVE:
        if kind != CERT_TOP:
            return [f"{name}: positive verdict with certificate {kind}"]
        p = cert["data"].get("witness_prime")
        if not _is_prime(p) or _betti_fp_uct(betti, torsion, p, d) == 0:
            return [f"{name}: witness {p} is not a prime with b_d(F_p) > 0"]
        return []
    if d != 2:
        if kind != CERT_COMPLEMENTARY or cert["data"].get("dimension") != d:
            return [f"{name}: zero verdict in dimension {d} with certificate {kind}"]
        return []
    if kind == CERT_COLLAPSE:
        err = replay_collapse(facets, cert["data"]["collapse"]["pairs"])
        return [] if err is None else [f"{name}: collapse certificate: {err}"]
    if kind == CERT_WITNESS and witness is not None:
        return _check_witness(name, facets, cert["data"], witness)
    return [f"{name}: zero verdict in dimension 2 with certificate {kind}"]


def _check_witness(name, facets, data, witness) -> List[str]:
    sup = data["supercomplex"]["facets"]
    emb = data["embedding"]
    if (sorted(map(sorted, sup)) != sorted(map(sorted, witness["supercomplex"]["facets"]))
            or emb != witness["embedding"]):
        return [f"{name}: certificate does not carry the given witness"]
    sup_faces = all_faces(sup)
    if len(set(emb)) != len(emb) or dimension(sup) != dimension(facets):
        return [f"{name}: witness is not an equal-dimension injective map"]
    for f in facets:
        if tuple(sorted(emb[v] for v in f)) not in sup_faces:
            return [f"{name}: image of {f} is not a face of the supercomplex"]
    err = replay_collapse(sup, data["collapse"]["pairs"])
    return [] if err is None else [f"{name}: witness collapse: {err}"]


# -- covers -------------------------------------------------------------------------


def subgroup_order(moduli: Sequence[int], images: Sequence[Sequence[int]]) -> int:
    """Order of the subgroup of Z/k_1 x ... x Z/k_r generated by the images:
    prod(k) / |Z^r / (images + diag(k))|, the cokernel order from a dense SNF."""
    r = len(moduli)
    mat = [[img[j] for img in images] + [moduli[j] if c == j else 0 for c in range(r)]
           for j in range(r)]
    coker = math.prod(oracles.dense_snf(mat))
    return math.prod(moduli) // coker


def check_cover_many(job: dict, output: dict) -> List[str]:
    """Free group F_n: a cover of index m is a graph with b = (1, m (n - 1) + 1)."""
    if "error" in output:
        return [f"{job['name']}: {output['error']}"]
    n = job["n"]
    index = subgroup_order(job["moduli"], job["images"])
    want = [1, index * (n - 1) + 1]
    problems = []
    if output["index"] != index:
        problems.append(f"{job['name']}: index {output['index']}, expected {index}")
    if output["betti"] != want:
        problems.append(f"{job['name']}: betti {output['betti']}, expected {want}")
    return problems


def _poly_power(base: Sequence[int], m: int) -> List[int]:
    out = [1]
    for _ in range(m):
        nxt = [0] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(base):
                nxt[i + j] += a * b
        out = nxt
    return out


def check_cover_large(job: dict, doc: dict, output: dict) -> List[str]:
    """One `raag growth` CSV: closed forms for products of free groups (C_4:
    (1 + (k^2+1) t)^2, octahedron: cubed), the Euler characteristic for C_5,
    exact ratios, and the reference column from dense mod-p homology of L."""
    name = job["name"]
    if output.get("rc") != 0:
        return [f"{name}: exit code {output.get('rc')}"]
    facets = doc["facets"]
    n = doc["vertices"]
    k, p = job["k"], job["prime"]
    d = dimension(facets)
    index = k ** n
    rows = list(csv.DictReader(io.StringIO(output["stdout"])))
    problems = []
    if [int(r["degree"]) for r in rows] != list(range(d + 2)):
        return [f"{name}: degrees {[r['degree'] for r in rows]}, expected 0..{d + 1}"]
    betti = [int(r["betti"]) for r in rows]
    for r in rows:
        num, den = int(r["ratio_num"]), int(r["ratio_den"])
        if int(r["index"]) != index:
            problems.append(f"{name}: index {r['index']}, expected {index}")
        if den <= 0 or math.gcd(num, den) != 1 or Fraction(num, den) != Fraction(int(r["betti"]), index):
            problems.append(f"{name}: ratio {num}/{den} is not betti/index in lowest terms")
    reference = [0] + oracles.brute_betti_fp([tuple(f) for f in facets], p, reduced=True)
    if [int(r["reference"]) for r in rows] != reference:
        problems.append(f"{name}: reference {[r['reference'] for r in rows]}, "
                        f"dense oracle {reference}")
    factors = {"cycle(4)": 2, "octahedron": 3}.get(job["base"])
    if factors is not None:
        want = _poly_power([1, k * k + 1], factors)
        if betti != want:
            problems.append(f"{name}: betti {betti}, Kunneth closed form {want}")
    else:
        chi = euler_characteristic(all_faces(facets))
        alternating = sum((-1) ** i * b for i, b in enumerate(betti))
        if betti[0] != 1 or alternating != index * (1 - chi):
            problems.append(f"{name}: betti {betti}: b_0 must be 1 and the alternating "
                            f"sum {index * (1 - chi)}")
    return problems


def check_pass(workload: str, work: Path, jobs: List[dict], outputs: List[dict]) -> List[str]:
    """Check every job output of one pass; inputs are read back from work/."""
    problems: List[str] = []
    for job, output in zip(jobs, outputs):
        if workload == "covers_many":
            problems += check_cover_many(job, output)
            continue
        doc = json.loads((work / job["file"]).read_text())
        if workload == "verdicts":
            witness = (json.loads((work / job["witness"]).read_text())
                       if "witness" in job else None)
            problems += check_verdict(job, doc, output, witness)
        else:
            problems += check_cover_large(job, doc, output)
    if len(outputs) != len(jobs):
        problems.append(f"{len(outputs)} outputs for {len(jobs)} jobs")
    return problems
