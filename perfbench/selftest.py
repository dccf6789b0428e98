"""Self-test of the output checkers: each must accept a right answer and
reject every deliberately wrong one, with the problem of the check the wrong
answer was built to trip.

    python3 perfbench/selftest.py

The right answers are written out by hand for small complexes; no raag code
runs.  A wrong-answer case names a piece of the problem message of the check
it targets (EXPECTED_MARKERS lists them, one per check of check.py), and
passes only if a problem containing it is reported, so a check that never
fires cannot hide behind another that does.  Most wrong answers trip their
check alone.  Exit status 0 means every case behaved and every check was
targeted.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402
from gen import _polygon_disk_facets  # noqa: E402

# one piece of problem text per check in check.py
EXPECTED_MARKERS = (
    "no table row", "no verdict JSON", "expected [", "exit code 3 for", "facets give d=",
    "not a reduced table", "chi - 1", ", dense oracle", "disagrees with its own top",
    "certificate replay failed", "Undetermined carries a certificate",
    "Undetermined outside dimension 2", "has a free face", "positive verdict with certificate",
    "is not a prime with", "zero verdict in dimension 1 with", "not a current face",
    "is not a coface of", "cofaces, not free", "faces remain", "zero verdict in dimension 2 with",
    "does not carry the given witness", "equal-dimension injective", "not a face of the super",
    "witness collapse:", "RuntimeError('no spec')", "index 4, expected 8",
    "betti [1, 8], expected", "exit code 1", "degrees [", "index 15, expected 16",
    "lowest terms", "reference [", "Kunneth closed form", "b_0 must be 1", "outputs for 2 jobs",
)


def _verdict(outcome, d, betti, torsion, cert=None, rc=0):
    doc = {"outcome": outcome, "d": d, "gdim": d + 1, "certificate": cert,
           "homology": {"reduced": True, "betti": betti, "torsion": torsion,
                        "betti_mod_p": []}, "notes": ""}
    return {"rc": rc, "stdout": json.dumps(doc), "stderr": ""}


def _edit(output, **changes):
    v = json.loads(output["stdout"])
    v.update(changes)
    return dict(output, stdout=json.dumps(v))


def _greedy_collapse(facets):
    """Pairs of a greedy collapse (free faces in sorted order), for fixtures."""
    faces = check.all_faces(facets)
    pairs = []
    while len(faces) > 1:
        for s in sorted(faces, key=lambda f: (-len(f), f)):
            cof = [t for t in faces if len(t) == len(s) + 1 and set(s) < set(t)]
            if len(cof) == 1:
                pairs.append([list(s), list(cof[0])])
                faces -= {s, cof[0]}
                break
        else:
            raise ValueError("greedy collapse got stuck")
    return pairs


def _dunce_hat():
    """A 9-gon disk whose boundary is wound onto a triangle by the word
    a a a^-1: contractible, and every edge lies in two or three triangles."""
    word = (0, 1, 2, 0, 1, 2, 0, 2, 1)
    vmap = {i: word[i] for i in range(9)}
    vmap.update({9 + i: 3 + i for i in range(9)})
    vmap[18] = 12
    return [sorted(vmap[v] for v in f) for f in _polygon_disk_facets(9)]


def _csv(k, n, betti, reference, ratio=None, index=None, rc=0):
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["modulus_vector", "index", "degree", "betti", "ratio_num",
                "ratio_den", "reference"])
    true_index = k ** n
    for i, b in enumerate(betti):
        r = Fraction(b, true_index)
        num, den = ratio if ratio and i == 1 else (r.numerator, r.denominator)
        w.writerow(["x".join([str(k)] * n), index or true_index, i, b, num, den, reference[i]])
    return {"rc": rc, "stdout": out.getvalue(), "stderr": ""}


def cases():
    """(label, checker thunk, None for a right answer or the expected marker)."""
    out = []

    def add(label, fn, expect=None):
        out.append((label, fn, expect))

    # verdict table, Euler characteristic, dense oracle, exit codes, report
    c5 = {"facets": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}
    top = {"kind": check.CERT_TOP, "data": {"witness_prime": 2}}
    complementary1 = {"kind": check.CERT_COMPLEMENTARY, "data": {"dimension": 1}}
    right = _verdict(check.POSITIVE, 1, [0, 1], [[], []], top)
    job = {"name": "cycle(5)"}

    def c5_check(output):
        return lambda: check.check_verdict(job, c5, output)

    add("cycle(5) right", c5_check(right))
    add("unknown job name", lambda: check.check_verdict({"name": "mystery"}, c5, right),
        "no table row")
    add("cycle(5) no JSON on stdout", c5_check(dict(right, stdout="")), "no verdict JSON")
    add("cycle(5) wrong outcome", c5_check(_edit(
        right, outcome=check.ZERO, certificate=complementary1)), "expected [")
    add("cycle(5) exit code 3", c5_check(dict(right, rc=3)), "exit code 3 for")
    add("cycle(5) gdim off", c5_check(_edit(right, gdim=3)), "facets give d=")
    add("cycle(5) unreduced homology", c5_check(_edit(right, homology={
        "reduced": False, "betti": [1, 1], "torsion": [[], []]})), "not a reduced table")
    add("cycle(5) betti off Euler", c5_check(_edit(
        right, homology={"reduced": True, "betti": [0, 2], "torsion": [[], []]})), "chi - 1")
    add("cycle(5) positive with vanishing top homology", c5_check(_edit(
        right, homology={"reduced": True, "betti": [0, 0], "torsion": [[], []]})),
        "disagrees with its own top")
    add("cycle(5) report says replay FAILED", c5_check(
        dict(right, stderr="certificate replay FAILED: mismatch\n")), "certificate replay failed")
    add("cycle(5) positive with a complementary certificate",
        c5_check(_edit(right, certificate=complementary1)), "positive verdict with certificate")
    add("cycle(5) witness prime 0", c5_check(_edit(
        right, certificate={"kind": check.CERT_TOP, "data": {"witness_prime": 0}})),
        "is not a prime with")

    # zero verdicts outside dimension 2 carry a complementary certificate of that dimension
    path4 = {"facets": [[0, 1], [1, 2], [2, 3]]}
    pjob = {"name": "path(4)"}
    pright = _verdict(check.ZERO, 1, [0, 0], [[], []], complementary1)
    add("path(4) right", lambda: check.check_verdict(pjob, path4, pright))
    add("path(4) complementary certificate of dimension 0", lambda: check.check_verdict(
        pjob, path4, _edit(pright, certificate={"kind": check.CERT_COMPLEMENTARY,
                                                "data": {"dimension": 0}})),
        "zero verdict in dimension 1 with")
    add("path(4) collapse certificate", lambda: check.check_verdict(
        pjob, path4, _edit(pright, certificate={"kind": check.CERT_COLLAPSE, "data": {
            "collapse": {"pairs": [[[3], [2, 3]], [[2], [1, 2]], [[1], [0, 1]]]}}})),
        "zero verdict in dimension 1 with")

    # random complexes: the expected outcome comes from the dense oracle
    sq = {"facets": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    rjob = {"name": "random-00"}
    add("random 4-cycle right", lambda: check.check_verdict(rjob, sq, right))
    add("random 4-cycle torsion the oracle lacks", lambda: check.check_verdict(
        rjob, sq, _edit(right, homology={"reduced": True, "betti": [0, 1],
                                         "torsion": [[], [2]]})), ", dense oracle")
    add("random 4-cycle called zero", lambda: check.check_verdict(rjob, sq, _edit(
        right, outcome=check.ZERO, homology={"reduced": True, "betti": [0, 0],
                                             "torsion": [[], []]},
        certificate=complementary1)), "expected [")

    # Undetermined: a 2-complex with H^2 = 0 that is not acyclic, and the dunce hat
    hole = {"facets": [[0, 1, 2], [2, 3], [0, 3]]}
    ujob = {"name": "random-01"}
    uright = _verdict(check.UNDETERMINED, 2, [0, 1, 0], [[], [], []], rc=3)
    add("random triangle with a loop Undetermined right",
        lambda: check.check_verdict(ujob, hole, uright))
    add("random triangle with a loop Undetermined with a certificate",
        lambda: check.check_verdict(ujob, hole, _edit(uright, certificate=complementary1)),
        "Undetermined carries a certificate")
    djob = {"name": "sd(dunce_flag)"}
    dright = _verdict(check.UNDETERMINED, 2, [0, 0, 0], [[], [], []], rc=3)
    add("dunce hat Undetermined right",
        lambda: check.check_verdict(djob, {"facets": _dunce_hat()}, dright))
    add("dunce hat row on a triangle, which has free edges", lambda: check.check_verdict(
        djob, {"facets": [[0, 1, 2]]}, dright), "has a free face")
    add("dunce hat row on a path of dimension 1", lambda: check.check_verdict(
        djob, {"facets": [[0, 1], [1, 2]]},
        _verdict(check.UNDETERMINED, 1, [0, 0], [[], []], rc=3)),
        "Undetermined outside dimension 2")

    # collapse certificates replayed by the free-face checker
    tri = {"facets": [[0, 1, 2]]}
    pairs = [[[0, 1], [0, 1, 2]], [[0], [0, 2]], [[1], [1, 2]]]
    coll = _verdict(check.ZERO, 2, [0, 0, 0], [[], [], []],
                    {"kind": check.CERT_COLLAPSE, "data": {"collapse": {"pairs": pairs}}})
    sjob = {"name": "simplex(2)"}
    add("simplex(2) collapse right", lambda: check.check_verdict(sjob, tri, coll))
    for label, bad, marker in (
            ("stops early", pairs[:2], "faces remain"),
            ("non-free first step", [[[0], [0, 1]]] + pairs[1:], "cofaces, not free"),
            ("coface of wrong size", [[[0], [0, 1, 2]]] + pairs[1:], "is not a coface of"),
            ("face not in the complex", [[[0, 3], [0, 1, 3]]] + pairs[1:],
             "not a current face")):
        cert = {"kind": check.CERT_COLLAPSE, "data": {"collapse": {"pairs": bad}}}
        add(f"simplex(2) collapse {label}",
            lambda cert=cert: check.check_verdict(sjob, tri, _edit(coll, certificate=cert)),
            marker)
    add("simplex(2) zero with a complementary certificate", lambda: check.check_verdict(
        sjob, tri, _edit(coll, certificate={"kind": check.CERT_COMPLEMENTARY,
                                            "data": {"dimension": 2}})),
        "zero verdict in dimension 2 with")

    # embedding witness: annulus in the collapsible disk
    disk = [list(f) for f in _polygon_disk_facets(6)]
    annulus = {"facets": [f for f in disk if 12 not in f]}
    witness = {"supercomplex": {"facets": disk}, "embedding": list(range(12))}
    wcert = {"kind": check.CERT_WITNESS, "data": {
        "supercomplex": {"facets": disk}, "embedding": list(range(12)),
        "collapse": {"pairs": _greedy_collapse(disk)}}}
    wright = _verdict(check.ZERO, 2, [0, 1, 0], [[], [], []], wcert)
    ajob = {"name": "annulus+witness", "witness": "w.json"}

    def with_embedding(embedding):
        cert = copy.deepcopy(wcert)
        cert["data"]["embedding"] = embedding
        return _edit(wright, certificate=cert), dict(witness, embedding=embedding)

    add("annulus witness right", lambda: check.check_verdict(ajob, annulus, wright, witness))
    add("annulus witness shifted embedding", lambda: check.check_verdict(
        ajob, annulus, *with_embedding(list(range(1, 13)))), "not a face of the super")
    add("annulus witness not injective", lambda: check.check_verdict(
        ajob, annulus, *with_embedding([0] + list(range(11)))), "equal-dimension injective")
    add("annulus certificate without the given witness", lambda: check.check_verdict(
        ajob, annulus, with_embedding(list(range(1, 13)))[0], witness),
        "does not carry the given witness")
    short = copy.deepcopy(wcert)
    short["data"]["collapse"]["pairs"] = short["data"]["collapse"]["pairs"][:-1]
    add("annulus witness collapse cut short", lambda: check.check_verdict(
        ajob, annulus, _edit(wright, certificate=short), witness), "witness collapse:")
    add("annulus Undetermined", lambda: check.check_verdict(ajob, annulus, _edit(
        dict(wright, rc=3), outcome=check.UNDETERMINED, certificate=None), witness),
        "expected [")

    # covers of free groups
    mjob = {"name": "F2:2x4", "n": 2, "moduli": [2, 4], "images": [[1, 1], [0, 1]]}
    mright = {"index": 8, "betti": [1, 9]}
    add("F2 cover right", lambda: check.check_cover_many(mjob, mright))
    add("F2 cover raised", lambda: check.check_cover_many(
        mjob, {"error": "RuntimeError('no spec')"}), "RuntimeError('no spec')")
    add("F2 cover b_1 off by one",
        lambda: check.check_cover_many(mjob, {"index": 8, "betti": [1, 8]}),
        "betti [1, 8], expected")
    add("F2 cover wrong index",
        lambda: check.check_cover_many(mjob, {"index": 4, "betti": [1, 9]}),
        "index 4, expected 8")
    half = dict(mjob, moduli=[4], images=[[2], [2]])
    add("F2 non-surjective spec right",
        lambda: check.check_cover_many(half, {"index": 2, "betti": [1, 3]}))
    add("F2 non-surjective spec full index",
        lambda: check.check_cover_many(half, {"index": 4, "betti": [1, 5]}), "index 4, expected")
    add("a pass with an output missing", lambda: check.check_pass(
        "covers_many", Path("."), [mjob, mjob], [mright]), "outputs for 2 jobs")

    # large covers: Kunneth closed forms for C_4 and the octahedron, Euler for C_5
    c4 = {"vertices": 4, "facets": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    ljob = {"name": "C4", "base": "cycle(4)", "k": 2, "prime": 2}

    def c4_check(output):
        return lambda: check.check_cover_large(ljob, c4, output)

    add("C4 cover right", c4_check(_csv(2, 4, [1, 10, 25], [0, 0, 1])))
    add("C4 cover exit code 1", c4_check(_csv(2, 4, [1, 10, 25], [0, 0, 1], rc=1)),
        "exit code 1")
    add("C4 cover degree 2 missing", c4_check(_csv(2, 4, [1, 10], [0, 0])), "degrees [")
    add("C4 cover index column off", c4_check(_csv(2, 4, [1, 10, 25], [0, 0, 1], index=15)),
        "index 15, expected 16")
    add("C4 cover b_2 off", c4_check(_csv(2, 4, [1, 10, 24], [0, 0, 1])),
        "Kunneth closed form")
    add("C4 cover ratio not reduced",
        c4_check(_csv(2, 4, [1, 10, 25], [0, 0, 1], ratio=(10, 16))), "lowest terms")
    add("C4 cover wrong reference", c4_check(_csv(2, 4, [1, 10, 25], [0, 1, 1])),
        "reference [")
    octahedron = {"vertices": 6,
                  "facets": [list(f) for f in itertools.product((0, 1), (2, 3), (4, 5))]}
    ojob = {"name": "octahedron", "base": "octahedron", "k": 2, "prime": 3}
    add("octahedron cover right", lambda: check.check_cover_large(
        ojob, octahedron, _csv(2, 6, [1, 15, 75, 125], [0, 0, 0, 1])))
    add("octahedron cover b_3 off", lambda: check.check_cover_large(
        ojob, octahedron, _csv(2, 6, [1, 15, 75, 124], [0, 0, 0, 1])), "Kunneth closed form")
    c5v = {"vertices": 5, "facets": c5["facets"]}
    fjob = {"name": "C5", "base": "cycle(5)", "k": 2, "prime": 2}
    add("C5 cover Euler right", lambda: check.check_cover_large(
        fjob, c5v, _csv(2, 5, [1, 40, 71], [0, 0, 1])))
    add("C5 cover Euler off", lambda: check.check_cover_large(
        fjob, c5v, _csv(2, 5, [1, 40, 70], [0, 0, 1])), "b_0 must be 1")
    add("C5 cover b_0 = 2", lambda: check.check_cover_large(
        fjob, c5v, _csv(2, 5, [2, 41, 71], [0, 0, 1])), "b_0 must be 1")
    return out


def _behaves(problems, expect) -> bool:
    if expect is None:
        return not problems
    return any(expect in p for p in problems)


def run_cases():
    """(label, behaved, problems) per case, then a failing row for every check
    in EXPECTED_MARKERS that no case targets."""
    all_cases = cases()
    rows = []
    for label, fn, expect in all_cases:
        problems = fn()
        rows.append((label, _behaves(problems, expect), problems))
    targeted = {expect for _, _, expect in all_cases}
    rows += [(f"no case targets the check with {m!r}", False, [])
             for m in EXPECTED_MARKERS if m not in targeted]
    return rows


def main() -> int:
    rows = run_cases()
    for label, ok, problems in rows:
        verdict = ("accepted" if not problems
                   else f"rejected ({len(problems)} problems): {problems[0]}")
        print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}")
    bad = sum(not ok for _, ok, _ in rows)
    print(f"{bad} checker self-test failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
