"""Entropy classification of A_L from the defining flag complex.

For a d-dimensional flag complex L the minimal volume entropy of A_L is
positive when the top integral cohomology H^d(L, Z) is nonzero, and zero when
L embeds into a d-dimensional contractible complex.  Outside dimension 2 the
two conditions are complementary, so vanishing top cohomology already decides
the zero case.  In dimension 2 with H^2 = 0 the classifier needs a
contractibility certificate: either a user-supplied embedding into a
2-complex that collapses, or a collapse of L itself.  When neither is found
the honest verdict is Undetermined; collapsibility is only a sufficient test
for contractibility and its failure proves nothing.

Every verdict carries a machine-checkable certificate that replays from its
serialized form; a homology certificate replays on one route, an F_p rank
for positivity or Smith normal forms for complementary vanishing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .collapse import CollapseSequence, collapse, reaches_vertex, replay_collapse
from .errors import MalformedComplexError, NotFlagError, WitnessRejectedError
from .homology import (HomologySummary, betti_table, flag_reduced_summary,
                       homology_summary, top_cohomology_nonzero)
from .linalg import is_prime
from .simplicial import (SimplicialComplex, complex_from_json_dict,
                         complex_to_json_dict, is_flag)

POSITIVE = "PositiveEntropy"
ZERO = "ZeroEntropy"
UNDETERMINED = "Undetermined"

CERT_TOP = "TopCohomologyNonzero"
CERT_COMPLEMENTARY = "ComplementaryVanishing"
CERT_COLLAPSE = "CollapsibleSelf"
CERT_WITNESS = "EmbeddingWitness"


@dataclass(frozen=True)
class EmbeddingWitness:
    """Claim that L embeds in a contractible complex of the same dimension.

    embedding[v] is the image of vertex v of L in the supercomplex.
    """

    supercomplex: SimplicialComplex
    embedding: Tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "supercomplex": complex_to_json_dict(self.supercomplex),
            "embedding": list(self.embedding),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "EmbeddingWitness":
        return EmbeddingWitness(
            supercomplex=complex_from_json_dict(data["supercomplex"]),
            embedding=tuple(data["embedding"]))


@dataclass(frozen=True)
class Certificate:
    """Typed certificate payload; data is JSON-ready."""

    kind: str
    data: Dict[str, object]

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "data": self.data}

    @staticmethod
    def from_json_dict(data: dict) -> "Certificate":
        return Certificate(kind=data["kind"], data=data["data"])


@dataclass(frozen=True)
class Verdict:
    outcome: str
    d: int
    gdim: int
    certificate: Optional[Certificate]
    homology: HomologySummary
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "d": self.d,
            "gdim": self.gdim,
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
            "homology": self.homology.to_json_dict(),
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict) -> "Verdict":
        cert = data.get("certificate")
        return Verdict(
            outcome=data["outcome"], d=data["d"], gdim=data["gdim"],
            certificate=None if cert is None else Certificate.from_json_dict(cert),
            homology=HomologySummary.from_json_dict(data["homology"]),
            notes=data.get("notes", ""))

    @staticmethod
    def from_json(text: str) -> "Verdict":
        return Verdict.from_json_dict(json.loads(text))


def _witness_structural_error(L: SimplicialComplex, w: EmbeddingWitness) -> Optional[str]:
    """Reason the witness is not an equal-dimension simplicial embedding, or None."""
    emb = w.embedding
    if len(emb) != L.n_vertices:
        return (f"embedding lists {len(emb)} images for {L.n_vertices} vertices")
    if any(type(v) is not int or not 0 <= v < w.supercomplex.n_vertices for v in emb):
        return "embedding image out of range in the supercomplex"
    if len(set(emb)) != len(emb):
        return "embedding is not injective"
    for f in L.facets:
        img = tuple(sorted(emb[v] for v in f))
        if not w.supercomplex.has_face(img):
            return f"image {img} of simplex {f} is not a simplex of the supercomplex"
    if w.supercomplex.dim != L.dim:
        return (f"supercomplex has dimension {w.supercomplex.dim}, "
                f"embedding must not raise dimension {L.dim}")
    return None


def verify_witness(L: SimplicialComplex,
                   w: EmbeddingWitness) -> Tuple[bool, str, Optional[CollapseSequence]]:
    """Check an embedding witness; returns (ok, reason, collapse sequence).

    A supercomplex with nonzero reduced homology is not contractible, so it
    is rejected before the collapse pass (collapsible implies contractible).
    A structurally sound, acyclic witness whose supercomplex does not
    collapse is reported as "contractibility unverified".
    """
    err = _witness_structural_error(L, w)
    if err is not None:
        return False, err, None
    h = homology_summary(w.supercomplex, reduced=True)
    for i in range(h.dim + 1):
        b, tor = h.group(i)
        if b or tor:
            return False, (f"supercomplex is not contractible: reduced H_{i} "
                           f"is nonzero"), None
    seq = collapse(w.supercomplex)
    if not reaches_vertex(w.supercomplex, seq):
        return False, "contractibility unverified: the supercomplex does not collapse", None
    return True, "supercomplex collapses to a vertex", seq


def classify(L: SimplicialComplex, witness: Optional[EmbeddingWitness] = None) -> Verdict:
    """Decide PositiveEntropy / ZeroEntropy / Undetermined for A_L.

    Requires a nonempty flag complex.  Order of attack: nonzero top reduced
    cohomology forces positive entropy; in any dimension other than 2 its
    vanishing forces zero entropy; in dimension 2 a verified witness or a
    collapse of L itself certifies zero, otherwise Undetermined.  L itself
    gets its collapse pass only when its reduced homology vanishes.

    The homology is flag_reduced_summary's: Smith normal forms and checked
    F_p tables of L's join factors, whose chain complexes are cached and
    shared with a later replay_certificate.
    """
    if L.is_empty():
        raise MalformedComplexError(
            "cannot classify the empty complex: it presents the trivial group")
    flag, nonface = is_flag(L)
    if not flag:
        raise NotFlagError(
            f"defining complex must be flag; minimal non-face {nonface}",
            witness=nonface)
    d = L.dim
    summary = flag_reduced_summary(L)
    nonzero, detail = top_cohomology_nonzero(L, summary=summary)

    if nonzero:
        cert = Certificate(CERT_TOP, detail)
        return Verdict(POSITIVE, d, d + 1, cert, summary)
    if d != 2:
        cert = Certificate(CERT_COMPLEMENTARY, {"dimension": d, "top_check": detail})
        return Verdict(ZERO, d, d + 1, cert, summary)

    notes = []
    if witness is not None:
        err = _witness_structural_error(L, witness)
        if err is not None:
            raise WitnessRejectedError(f"embedding witness rejected: {err}")
        ok, reason, seq = verify_witness(L, witness)
        if ok:
            cert = Certificate(CERT_WITNESS, {
                "supercomplex": complex_to_json_dict(witness.supercomplex),
                "embedding": list(witness.embedding),
                "collapse": seq.to_json_dict(),
            })
            return Verdict(ZERO, d, d + 1, cert, summary)
        notes.append(f"witness unusable: {reason}")
    # collapsible implies contractible, so nonzero reduced homology rules
    # out every collapse and the pass is skipped
    if summary.is_trivial():
        seq = collapse(L)
        if reaches_vertex(L, seq):
            cert = Certificate(CERT_COLLAPSE, {"collapse": seq.to_json_dict()})
            return Verdict(ZERO, d, d + 1, cert, summary)
    notes.append("the complex itself does not collapse")
    notes.append("dimension-2 gap: top cohomology vanishes but contractible "
                 "embedding is unverified; positive and zero entropy are not "
                 "known to be complementary here")
    return Verdict(UNDETERMINED, d, d + 1, None, summary, notes="; ".join(notes))


def replay_certificate(L: SimplicialComplex, verdict: Verdict) -> Tuple[bool, str]:
    """Re-verify a verdict's certificate from scratch against L.

    A homology certificate must record d = dim L and replays on one route.
    TopCohomologyNonzero needs reduced b_d(L, F_p) > 0 at its witness prime,
    from F_p ranks alone (H^d(L, F_p) = H^d(L, Z) (x) F_p in the top degree);
    one that sets all_primes, which report prints as growth at every prime,
    also needs condition top_betti_positive and b_d > 0 over Q, from Smith
    normal forms.  ComplementaryVanishing needs, away from dimension 2,
    b_d = 0 and no torsion in H_{d-1}, from Smith normal forms alone.
    CollapsibleSelf and EmbeddingWitness replay their collapse sequence.
    Certificate data that does not parse fails the replay like a bad step.
    """
    cert = verdict.certificate
    if cert is None:
        return False, "no certificate attached"
    if not isinstance(cert.data, dict):
        return False, f"malformed {cert.kind} certificate (data is not an object)"
    if cert.kind in (CERT_TOP, CERT_COMPLEMENTARY):
        d = cert.data.get("dimension")
        if type(d) is not int or L.is_empty() or d != L.dim:
            return False, f"certificate records dimension {d!r}, complex has dimension {L.dim}"
    if cert.kind == CERT_TOP:
        p = cert.data.get("witness_prime")
        if type(p) is not int or p >= 1 << 64 or not is_prime(p):
            return False, f"witness prime {p!r} is not a prime below 2^64"
        if betti_table(L, p)[d] == 0:
            return False, f"top cohomology over F_{p} recomputes to zero"
        if cert.data.get("all_primes"):
            if cert.data.get("condition") != "top_betti_positive":
                return False, (f"all_primes needs condition top_betti_positive, "
                               f"not {cert.data.get('condition')!r}")
            if homology_summary(L, reduced=True).betti[d] == 0:
                return False, "all_primes claimed, but b_d over Q recomputes to zero"
        return True, f"top cohomology nonzero reconfirmed ({cert.data.get('condition')})"
    if cert.kind == CERT_COMPLEMENTARY:
        if d == 2:
            return False, "complementary vanishing does not apply in dimension 2"
        h = homology_summary(L, reduced=True)
        if h.betti[d] or h.group(d - 1)[1]:
            return False, "top cohomology recomputes to nonzero"
        return True, "vanishing top cohomology reconfirmed in dimension != 2"
    if cert.kind in (CERT_COLLAPSE, CERT_WITNESS):
        x = L
        try:
            if cert.kind == CERT_WITNESS:
                w = EmbeddingWitness.from_json_dict(cert.data)
                err = _witness_structural_error(L, w)
                if err is not None:
                    return False, err
                x = w.supercomplex
            seq = CollapseSequence.from_json_dict(cert.data["collapse"])
        except (KeyError, TypeError, ValueError, MalformedComplexError) as e:
            return False, f"malformed {cert.kind} certificate ({type(e).__name__}: {e})"
        return replay_collapse(x, seq)
    return False, f"unknown certificate kind {cert.kind!r}"


def report(L: SimplicialComplex, verdict: Verdict) -> str:
    """Human-readable account of a classification.

    A definite verdict always gets a replay line, so one read back without
    a certificate reports its replay as failed.  The growth prediction of a
    positive verdict names the certificate's prime, and is left out when
    the certificate data is not an object to read it from.
    """
    name = L.name or "L"
    lines = [
        f"complex {name}: dimension {verdict.d}, f-vector {L.f_vector()}",
        f"geometric dimension of the group: {verdict.gdim}",
    ]
    h = verdict.homology
    for i in range(h.dim + 1):
        row = f"  reduced H_{i} = {h.group_text(i)}"
        if h.primes():
            mods = ", ".join(f"b(F_{p})={h.betti_fp(p)[i]}" for p in h.primes())
            row += f"   [{mods}]"
        lines.append(row)
    lines.append(f"verdict: {verdict.outcome}")
    cert = verdict.certificate
    if cert is not None or verdict.outcome != UNDETERMINED:
        ok, why = replay_certificate(L, verdict)
        status = "ok" if ok else "FAILED"
        lines.append(f"certificate: {'none' if cert is None else cert.kind}; "
                     f"replay {status} ({why})")
    if verdict.outcome == POSITIVE and cert is not None and isinstance(cert.data, dict):
        detail = cert.data
        where = "every prime" if detail.get("all_primes") else f"p = {detail.get('witness_prime')}"
        lines.append(f"prediction: mod-p homology growth of finite covers is "
                     f"nonvanishing in degree {verdict.gdim} at {where}")
    if verdict.notes:
        lines.append(f"notes: {verdict.notes}")
    return "\n".join(lines)
