"""Entropy classification: verdicts, witnesses, certificates, replay."""

import importlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_betti_fp

import raag.homology as homology_module
from raag.classify import (CERT_COLLAPSE, CERT_COMPLEMENTARY, CERT_TOP,
                           CERT_WITNESS, POSITIVE, UNDETERMINED, ZERO,
                           Certificate, EmbeddingWitness, Verdict, classify,
                           replay_certificate, report, verify_witness)
from raag.errors import (MalformedComplexError, NotFlagError,
                         WitnessRejectedError)
from raag.fixtures import _polygon_disk, fixture, standard_fixtures
from raag.simplicial import (barycentric_subdivision, cone, flag_completion,
                             from_facets, induced_subcomplex)


collapse_module = importlib.import_module("raag.collapse")


def _annulus_and_disk():
    disk = _polygon_disk(6)
    annulus, _ = induced_subcomplex(disk, range(12))
    witness = EmbeddingWitness(supercomplex=disk, embedding=tuple(range(12)))
    return annulus, disk, witness


# -- verdicts on the standard menu --------------------------------------------------


@pytest.mark.parametrize("name,kwargs,outcome,kind", [
    ("cycle", dict(n=5), POSITIVE, CERT_TOP),
    ("discrete", dict(n=2), POSITIVE, CERT_TOP),
    ("octahedron", {}, POSITIVE, CERT_TOP),
    ("rp2_flag", {}, POSITIVE, CERT_TOP),
    ("moore_flag", dict(q=3), POSITIVE, CERT_TOP),
    ("simplex", dict(n=0), ZERO, CERT_COMPLEMENTARY),
    ("path", dict(n=4), ZERO, CERT_COMPLEMENTARY),
    ("simplex", dict(n=3), ZERO, CERT_COMPLEMENTARY),
    ("simplex", dict(n=2), ZERO, CERT_COLLAPSE),
    ("disk_flag", {}, ZERO, CERT_COLLAPSE),
    ("dunce_flag", {}, UNDETERMINED, None),
])
def test_verdicts(name, kwargs, outcome, kind):
    L = fixture(name, **kwargs)
    v = classify(L)
    assert v.outcome == outcome
    assert v.d == L.dim and v.gdim == L.dim + 1
    if kind is None:
        assert v.certificate is None
    else:
        assert v.certificate.kind == kind
        ok, why = replay_certificate(L, v)
        assert ok, why


def test_higher_dimensional_contractible_is_zero():
    L = cone(fixture("octahedron"))
    v = classify(L)
    assert v.outcome == ZERO and v.certificate.kind == CERT_COMPLEMENTARY
    assert v.d == 3 and v.gdim == 4


def test_positive_detail_identifies_prime():
    v = classify(fixture("rp2_flag"))
    assert v.certificate.data["condition"] == "torsion_below_top"
    assert v.certificate.data["witness_prime"] == 2
    v = classify(fixture("moore_flag", q=3))
    assert v.certificate.data["witness_prime"] == 3
    v = classify(fixture("cycle", n=5))
    assert v.certificate.data["all_primes"] is True


def test_undetermined_notes_name_the_gap():
    v = classify(fixture("dunce_flag"))
    assert v.outcome == UNDETERMINED
    assert "dimension-2 gap" in v.notes
    assert "the complex itself does not collapse" in v.notes


def test_classify_rejects_empty_and_non_flag():
    with pytest.raises(MalformedComplexError):
        classify(from_facets([]))
    with pytest.raises(NotFlagError) as exc:
        classify(fixture("rp2_6"))
    assert exc.value.witness == (0, 1, 3)


# -- embedding witnesses --------------------------------------------------------------


def test_verify_witness_accepts_tree_identity():
    p3 = fixture("path", n=3)
    ok, reason, seq = verify_witness(p3, EmbeddingWitness(p3, (0, 1, 2)))
    assert ok and seq is not None
    assert "collapses" in reason


def test_verify_witness_not_contractible():
    c4 = fixture("cycle", n=4)
    ok, reason, seq = verify_witness(c4, EmbeddingWitness(c4, (0, 1, 2, 3)))
    assert not ok and seq is None
    assert "not contractible" in reason


def test_verify_witness_structural_failures():
    p3 = fixture("path", n=3)
    ok, reason, _ = verify_witness(p3, EmbeddingWitness(p3, (0, 0, 1)))
    assert not ok and "injective" in reason
    ok, reason, _ = verify_witness(p3, EmbeddingWitness(p3, (0, 1)))
    assert not ok and "3 vertices" in reason
    edge = fixture("simplex", n=1)
    ok, reason, _ = verify_witness(fixture("discrete", n=2), EmbeddingWitness(edge, (0, 1)))
    assert not ok and "dimension" in reason
    # image of an edge missing in the supercomplex
    two_edges = from_facets([[0, 1], [2, 3]])
    ok, reason, _ = verify_witness(edge, EmbeddingWitness(two_edges, (0, 2)))
    assert not ok and "not a simplex" in reason


def test_boolean_embedding_images_are_rejected():
    # true == 1 as a Python int, so without the check this embeds the triangle
    triangle = from_facets([[0, 1, 2]])
    w = EmbeddingWitness(triangle, (True, 0, 2))
    ok, reason, _ = verify_witness(triangle, w)
    assert not ok and "out of range" in reason
    cert = Certificate(CERT_WITNESS, {"supercomplex": {"facets": [[0, 1, 2]]},
                                      "embedding": [True, 0, 2], "collapse": {}})
    ok, reason = replay_certificate(triangle, Verdict(ZERO, 2, 3, cert, classify(triangle).homology))
    assert not ok and "out of range" in reason


def test_annulus_needs_its_witness():
    annulus, disk, witness = _annulus_and_disk()
    assert classify(annulus).outcome == UNDETERMINED
    v = classify(annulus, witness=witness)
    assert v.outcome == ZERO and v.certificate.kind == CERT_WITNESS
    ok, why = replay_certificate(annulus, v)
    assert ok, why


def test_structurally_bad_witness_raises():
    annulus, disk, _ = _annulus_and_disk()
    bad = EmbeddingWitness(disk, tuple(range(1, 13)))  # duplicate-free but wrong simplices
    with pytest.raises(WitnessRejectedError):
        classify(annulus, witness=bad)


def test_unusable_witness_noted_and_ignored():
    annulus, _, _ = _annulus_and_disk()
    # structurally fine, but the supercomplex is the annulus itself: not contractible
    self_witness = EmbeddingWitness(annulus, tuple(range(12)))
    v = classify(annulus, witness=self_witness)
    assert v.outcome == UNDETERMINED
    assert "witness unusable" in v.notes


def test_non_contractible_witness_rejected_without_collapse_search(monkeypatch):
    annulus, _, _ = _annulus_and_disk()
    calls = []
    state = collapse_module._State
    monkeypatch.setattr(collapse_module, "_State",
                        lambda faces: calls.append(1) or state(faces))
    ok, reason, seq = verify_witness(annulus, EmbeddingWitness(annulus, tuple(range(12))))
    assert not ok and seq is None and "not contractible" in reason
    assert calls == []


# -- certificates: serialization and replay ---------------------------------------------


@pytest.mark.parametrize("name,kwargs", [
    ("cycle", dict(n=5)),           # TopCohomologyNonzero
    ("path", dict(n=4)),            # ComplementaryVanishing
    ("disk_flag", {}),              # CollapsibleSelf
])
def test_certificate_survives_serialization(name, kwargs):
    L = fixture(name, **kwargs)
    v = classify(L)
    back = Verdict.from_json(v.to_json())
    assert back == v
    ok, why = replay_certificate(L, back)
    assert ok, why


def test_witness_certificate_survives_serialization():
    annulus, _, witness = _annulus_and_disk()
    v = classify(annulus, witness=witness)
    back = Verdict.from_json(v.to_json())
    assert back == v
    ok, why = replay_certificate(annulus, back)
    assert ok, why


def test_replay_rejects_mismatched_certificates():
    # a positivity certificate replayed against a complex with vanishing top cohomology
    v = classify(fixture("cycle", n=5))
    ok, why = replay_certificate(fixture("path", n=4), v)
    assert not ok
    # complementary vanishing replayed in dimension 2
    v = classify(fixture("path", n=4))
    ok, why = replay_certificate(fixture("disk_flag"), v)
    assert not ok and "dimension 2" in why
    # tampered collapse pairs
    v = classify(fixture("disk_flag"))
    data = json.loads(v.to_json())
    data["certificate"]["data"]["collapse"]["pairs"] = \
        data["certificate"]["data"]["collapse"]["pairs"][1:]
    tampered = Verdict.from_json_dict(data)
    ok, _ = replay_certificate(fixture("disk_flag"), tampered)
    assert not ok
    # unknown kind
    v = classify(fixture("path", n=4))
    odd = Verdict(v.outcome, v.d, v.gdim, Certificate("Imaginary", {}), v.homology)
    ok, why = replay_certificate(fixture("path", n=4), odd)
    assert not ok and "unknown" in why


@pytest.mark.parametrize("kind, payload", [
    (CERT_COLLAPSE, {}),
    (CERT_COLLAPSE, {"collapse": {}}),
    (CERT_COLLAPSE, {"collapse": {"pairs": [[[0], [0, "x"]]]}}),
    (CERT_COLLAPSE, {"collapse": {"pairs": 5}}),
    (CERT_COLLAPSE, [5]),
    (CERT_WITNESS, "no supercomplex"),
    (CERT_TOP, None),
    (CERT_COMPLEMENTARY, []),
], ids=["no-collapse", "no-pairs", "string-vertex", "pairs-not-a-list", "collapse-list",
        "witness-no-supercomplex", "top-null", "complementary-list"])
def test_replay_rejects_a_malformed_payload(kind, payload):
    witness = None
    if kind == CERT_WITNESS:
        L, _, witness = _annulus_and_disk()
    else:
        L = standard_fixtures()[{CERT_TOP: "cycle(5)", CERT_COMPLEMENTARY: "path(4)",
                                 CERT_COLLAPSE: "disk_flag"}[kind]]
    data = json.loads(classify(L, witness=witness).to_json())
    assert data["certificate"]["kind"] == kind
    if kind == CERT_WITNESS:
        payload = dict(data["certificate"]["data"])
        del payload["supercomplex"]
    data["certificate"]["data"] = payload
    ok, why = replay_certificate(L, Verdict.from_json_dict(data))
    assert not ok
    assert why.startswith(f"malformed {kind} certificate ("), why


def test_replay_proves_all_primes_over_q():
    # H^2(rp2_flag; F_3) = 0: a claim of growth at every prime must not replay
    L = fixture("rp2_flag")
    data = json.loads(classify(L).to_json())
    data["certificate"]["data"].update(all_primes=True)
    ok, why = replay_certificate(L, Verdict.from_json_dict(data))
    assert not ok and "condition" in why
    data["certificate"]["data"].update(condition="top_betti_positive")
    tampered = Verdict.from_json_dict(data)
    ok, why = replay_certificate(L, tampered)
    assert not ok and "over Q" in why
    assert "replay FAILED" in report(L, tampered)
    # b_2 = 1 over Q for cycle(5) = S^1
    L = fixture("cycle", n=5)
    v = classify(L)
    assert v.certificate.data["all_primes"]
    assert replay_certificate(L, v) == (True, "top cohomology nonzero reconfirmed "
                                              "(top_betti_positive)")


def test_undetermined_has_nothing_to_replay():
    L = fixture("dunce_flag")
    v = classify(L)
    ok, why = replay_certificate(L, v)
    assert not ok and "no certificate" in why


# -- invariance and soundness properties --------------------------------------------------


@pytest.mark.parametrize("name,kwargs", [
    ("cycle", dict(n=4)),
    ("path", dict(n=4)),
    ("simplex", dict(n=2)),
    ("octahedron", {}),
])
def test_outcome_invariant_under_subdivision(name, kwargs):
    L = fixture(name, **kwargs)
    sd = barycentric_subdivision(L).complex
    assert classify(L).outcome == classify(sd).outcome


def _random_flag_complex(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    facets = [[v] for v in range(n)]
    for e in itertools.combinations(range(n), 2):
        if rng.random() < 0.55:
            facets.append(list(e))
    return flag_completion(from_facets(facets))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 7))
def test_classification_soundness_on_random_flag_complexes(seed):
    L = _random_flag_complex(seed)
    v = classify(L)
    d = L.dim
    facets = [list(f) for f in L.facets]
    primes = [int(p) for p in v.certificate.data["checked_primes"]] \
        if v.certificate is not None and v.certificate.kind == CERT_TOP else [2, 3, 5, 7]
    oracle_positive = any(brute_betti_fp(facets, p, reduced=True)[d] > 0 for p in primes)
    if v.outcome == POSITIVE:
        assert oracle_positive
    else:
        assert not oracle_positive or d == 2
    if v.outcome == UNDETERMINED:
        assert d == 2
        assert not oracle_positive
    if v.certificate is not None:
        ok, why = replay_certificate(L, v)
        assert ok, why
    assert Verdict.from_json(v.to_json()) == v


# -- report text -----------------------------------------------------------------------


def test_report_mentions_prediction_and_certificate():
    L = fixture("cycle", n=5)
    text = report(L, classify(L))
    assert "verdict: PositiveEntropy" in text
    assert "degree 2 at every prime" in text
    assert "replay ok" in text

    L = fixture("rp2_flag")
    text = report(L, classify(L))
    assert "degree 3 at p = 2" in text

    L = fixture("dunce_flag")
    text = report(L, classify(L))
    assert "verdict: Undetermined" in text
    assert "notes:" in text


@pytest.mark.parametrize("tamper, kind", [
    (lambda d: d.update(certificate=None), "none"),
    (lambda d: d["certificate"].update(data=["witness_prime", 2]), CERT_TOP),
], ids=["null_certificate", "data_not_an_object"])
def test_report_of_a_positive_verdict_without_readable_certificate(tamper, kind):
    # read back through JSON, the verdict reports its failed replay and
    # names no prime to predict growth at
    L = fixture("cycle", n=5)
    data = classify(L).to_json_dict()
    tamper(data)
    text = report(L, Verdict.from_json_dict(data))
    assert "verdict: PositiveEntropy" in text
    assert f"certificate: {kind}; replay FAILED" in text
    assert "prediction" not in text


# -- what classify leaves out ----------------------------------------------------------


ANNULUS_VERDICT = """{
  "certificate": null,
  "d": 2,
  "gdim": 3,
  "homology": {
    "betti": [
      0,
      1,
      0
    ],
    "betti_mod_p": {
      "2": [
        0,
        1,
        0
      ]
    },
    "reduced": true,
    "torsion": [
      [],
      [],
      []
    ]
  },
  "notes": "the complex itself does not collapse; dimension-2 gap: top cohomology \
vanishes but contractible embedding is unverified; positive and zero entropy are not \
known to be complementary here",
  "outcome": "Undetermined"
}"""

ANNULUS_REPORT = """complex L: dimension 2, f-vector (12, 24, 12)
geometric dimension of the group: 3
  reduced H_0 = 0   [b(F_2)=0]
  reduced H_1 = Z   [b(F_2)=1]
  reduced H_2 = 0   [b(F_2)=0]
verdict: Undetermined
notes: the complex itself does not collapse; dimension-2 gap: top cohomology \
vanishes but contractible embedding is unverified; positive and zero entropy are not \
known to be complementary here"""


def test_annulus_verdict_and_report_pinned():
    # the skipped search leaves the verdict, its notes and the report as they were
    annulus, _, _ = _annulus_and_disk()
    v = classify(annulus)
    assert v.to_json() == ANNULUS_VERDICT
    assert report(annulus, v) == ANNULUS_REPORT


RANKS, SMITH = "pivot_rows_mod_p", "smith_normal_form"


@pytest.mark.parametrize("make, kind, used", [
    pytest.param(lambda: from_facets(fixture("rp2_flag").facets), CERT_TOP, {RANKS},
                 id="rp2_flag"),
    pytest.param(lambda: barycentric_subdivision(fixture("octahedron")).complex, CERT_TOP,
                 {RANKS, SMITH}, id="sd_octahedron"),
    pytest.param(lambda: cone(fixture("moore_flag", q=3)), CERT_COMPLEMENTARY, {SMITH},
                 id="cone_moore_flag3"),
    pytest.param(lambda: fixture("path", n=4), CERT_COMPLEMENTARY, {SMITH}, id="path4"),
])
def test_each_homology_certificate_replays_on_one_route(monkeypatch, make, kind, used):
    # positivity replays by F_p ranks, complementary vanishing by Smith forms
    # alone; a claim of growth at every prime (sd_octahedron: b_2 = 1 over Q)
    # also reads b_d over Q from Smith forms
    L = make()
    v = classify(L)
    assert v.certificate.kind == kind
    assert v.certificate.data.get("all_primes", False) == (used == {RANKS, SMITH})
    calls = {RANKS: 0, SMITH: 0}
    for name in calls:
        def counted(*args, _real=getattr(homology_module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(homology_module, name, counted)
    assert "replay ok" in report(L, v)
    assert {name for name, n in calls.items() if n} == used


def _tampered(L, key, value):
    data = json.loads(classify(L).to_json())
    data["certificate"]["data"][key] = value
    return Verdict.from_json_dict(data)


@pytest.mark.parametrize("prime", [3, 5, 4, 1, 0, -2, None, True, "2", 1 << 64], ids=repr)
def test_replay_rejects_a_witness_prime_without_top_cohomology(prime):
    # b_2(rp2_flag; F_p) = 0 at every odd prime; 4, 1, ... are no primes at all
    L = fixture("rp2_flag")
    ok, why = replay_certificate(L, _tampered(L, "witness_prime", prime))
    assert not ok
    assert why == ("top cohomology over F_%d recomputes to zero" % prime
                   if prime in (3, 5) else
                   f"witness prime {prime!r} is not a prime below 2^64")


@pytest.mark.parametrize("name, dimension", [
    ("path(4)", 3), ("path(4)", 0), ("path(4)", "1"), ("path(4)", 1.0), ("path(4)", True),
    ("rp2_flag", 1), ("rp2_flag", None),
], ids=["path4-3", "path4-0", "path4-string", "path4-float", "path4-bool", "rp2_flag-1",
        "rp2_flag-None"])
def test_replay_rejects_a_wrong_dimension(name, dimension):
    L = standard_fixtures()[name]
    ok, why = replay_certificate(L, _tampered(L, "dimension", dimension))
    assert not ok
    assert why == f"certificate records dimension {dimension!r}, complex has dimension {L.dim}"
