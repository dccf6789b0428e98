"""Command-line interface: stdout/stderr split, pipelines, exit codes."""

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import raag
import raag.growth as growth_module
import raag.homology as homology_module
import raag.simplicial as simplicial
from raag import cli, errors
from raag import io as rio
from raag.classify import EmbeddingWitness
from raag.cli import main
from raag.fixtures import _polygon_disk, fixture
from raag.growth import growth_experiment
from raag.models import FiniteQuotientSpec, standard_spec
from raag.simplicial import (barycentric_subdivision, complex_to_json_dict, cone,
                             from_facets, induced_subcomplex, join, join_factors)

# the package re-exports the function collapse under the submodule's name
collapse_module = importlib.import_module("raag.collapse")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


# -- build -------------------------------------------------------------------------


def test_build_fixture_round_trip(capsys):
    code, out, err = run(capsys, "build", "--fixture", "cycle", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 5
    assert len(data["facets"]) == 5
    assert "f-vector (5, 5)" in err
    assert "flag: yes" in err


def test_build_canonicalizes_input_file(tmp_path, capsys):
    raw = write_json(tmp_path / "raw.json",
                     {"facets": [[2, 1, 0], [0, 1]], "vertices": 3})
    code, out, _ = run(capsys, "build", raw)
    assert code == 0
    first = json.loads(out)
    assert first["facets"] == [[0, 1, 2]]
    again = write_json(tmp_path / "again.json", first)
    code, out, _ = run(capsys, "build", again)
    assert json.loads(out) == first


def test_build_pipeline_order_matters(tmp_path, capsys):
    code, out_a, _ = run(capsys, "build", "--fixture", "simplex", "--n", "1",
                         "--sd", "--cone")
    code_b, out_b, _ = run(capsys, "build", "--fixture", "simplex", "--n", "1",
                           "--cone", "--sd")
    assert code == 0 and code_b == 0
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["vertices"] == 4      # cone on the subdivided edge
    assert b["vertices"] == 7      # subdivision of the solid triangle
    assert a != b


def test_build_join_step(tmp_path, capsys):
    other = write_json(tmp_path / "pair.json",
                       complex_to_json_dict(fixture("discrete", n=2)))
    code, out, err = run(capsys, "build", "--fixture", "discrete", "--n", "2",
                         "--join", other)
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 4
    assert sorted(map(tuple, data["facets"])) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_build_quotient_step_icosahedron_to_rp2(tmp_path, capsys):
    vmap = write_json(tmp_path / "antipodal.json",
                      [0, 1, 2, 3, 4, 5, 4, 5, 1, 2, 3, 0])
    code, out, err = run(capsys, "build", "--fixture", "icosahedron",
                         "--quotient", vmap)
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 6 and len(data["facets"]) == 10
    assert "flag: no" in err


def test_build_flag_completion_notice(tmp_path, capsys):
    hollow = write_json(tmp_path / "c3.json",
                        {"facets": [[0, 1], [1, 2], [0, 2]], "vertices": 3})
    code, out, err = run(capsys, "build", hollow, "--flag-completion")
    assert code == 0
    assert json.loads(out)["facets"] == [[0, 1, 2]]
    assert "NOTE" in err and "clique complex" in err


def test_build_output_file_keeps_stdout_clean(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, err = run(capsys, "build", "--fixture", "cycle", "--n", "4",
                         "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["vertices"] == 4


def test_build_rejects_missing_or_double_input(tmp_path, capsys):
    code, _, err = run(capsys, "build")
    assert code == 10 and "error" in err
    some = write_json(tmp_path / "x.json", {"facets": [[0]]})
    code, _, err = run(capsys, "build", some, "--fixture", "cycle", "--n", "4")
    assert code == 10


def test_build_rejects_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "build", str(bad))
    assert code == 10


def test_non_utf8_input_exits_ten(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"facets": [[0, 1]], "name": "\xff\xfe"}')
    code, _, err = run(capsys, "homology", str(bad))
    assert code == 10 and "cannot read" in err and "Traceback" not in err


def test_deeply_nested_input_exits_ten(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code, _, err = run(capsys, "homology", str(deep))
    assert code == 10 and "nests JSON too deeply" in err and "Traceback" not in err


def test_unwritable_output_path_exits_ten(tmp_path, capsys):
    target = tmp_path / "missing" / "h.json"
    code, out, err = run(capsys, "homology", "--fixture", "cycle", "--n", "4",
                         "-o", str(target))
    assert code == 10 and out == ""
    assert f"cannot write {target}" in err and "Traceback" not in err


def _run_with_lost_reader(stream, argv):
    """raag.cli in a subprocess whose stdout or stderr (stream) is a pipe whose
    read end is already closed; the other stream is captured."""
    src = str(Path(raag.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end}
    try:
        return subprocess.run([sys.executable, "-m", "raag.cli", *argv], text=True,
                              env={**os.environ, "PYTHONPATH": src}, **pipes)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [
    ["homology", "--fixture", "octahedron"],          # fits the buffer: fails at the flush
    ["build", "--fixture", "rp2_flag", "--sd"],       # outgrows it: fails inside print
])
def test_closed_stdout_exits_ten(argv):
    proc = _run_with_lost_reader("stdout", argv)
    assert proc.returncode == 10
    assert proc.stderr.splitlines()[-1].startswith("error: cannot write to stdout")
    assert proc.stderr.count("error:") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["classify", "--fixture", "rp2_flag"],            # fails writing the report
    ["build", "--fixture", "rp2_flag"],               # fails writing the f-vector line
    ["classify", "--fixture", "no_such_fixture"],     # fails writing the error line
])
def test_closed_stderr_exits_ten(capsys, argv):
    # stdout still reaches its reader whole; a failed last flush of stderr
    # would exit 120
    proc = _run_with_lost_reader("stderr", argv)
    main(argv)
    assert proc.returncode == 10
    assert proc.stdout == capsys.readouterr().out


# every JSON input slot, as (argv with FILE for the file, document with P for
# the payload, at a place that takes a vertex id); a JSON integer past the
# interpreter's 4,300-digit limit is unreadable JSON, like the others
JSON_SLOTS = {
    "complex": (["homology", "FILE"], b'{"facets": [[0, P]]}'),
    "join": (["build", "--fixture", "cycle", "--n", "4", "--join", "FILE"],
             b'{"facets": [[0, P]]}'),
    "quotient": (["build", "TRI", "--quotient", "FILE"], b"[0, P, 2]"),
    "witness": (["classify", "TRI", "--witness", "FILE"],
                b'{"supercomplex": {"facets": [[0, 1, 2]]}, "embedding": [0, P, 2]}'),
}
MALFORMED_PAYLOADS = {
    "5000-digit int": b"9" * 5000,
    "float": b"1.5",
    "NaN": b"NaN",
    "true": b"true",
    "deep nesting": b"[" * 200_000 + b"]" * 200_000,
    "non-UTF-8": b'"\xff\xfe"',
}


@pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
@pytest.mark.parametrize("slot", JSON_SLOTS)
def test_malformed_json_inputs_exit_ten(tmp_path, capsys, slot, payload):
    argv, document = JSON_SLOTS[slot]
    path = tmp_path / "input.json"
    path.write_bytes(document.replace(b"P", MALFORMED_PAYLOADS[payload]))
    tri = write_json(tmp_path / "tri.json", {"facets": [[0, 1, 2]]})
    argv = [{"FILE": str(path), "TRI": tri}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 10 and out == "" and "Traceback" not in err


@pytest.mark.parametrize("vertex_map", [[True, 0, 1], [0, False, 1]])
def test_boolean_vertex_map_entries_exit_ten(tmp_path, capsys, vertex_map):
    path = write_json(tmp_path / "tri.json", {"facets": [[0, 1], [1, 2], [2, 3]]})
    mapfile = write_json(tmp_path / "map.json", vertex_map + [2])
    code, _, err = run(capsys, "build", path, "--quotient", mapfile)
    assert code == 10 and "list of integers" in err


@pytest.mark.parametrize("facets, vertex_map", [
    ([[0], [2_000_000]], None),
    ([[0], [1]], [0, 2_000_000]),
])
def test_sparse_ids_exit_ten_with_a_short_message(tmp_path, capsys, facets, vertex_map):
    # the missing ids are counted, not listed: a far id costs no more memory
    # or message than a near one
    argv = ["build", write_json(tmp_path / "x.json", {"facets": facets})]
    if vertex_map is not None:
        argv += ["--quotient", write_json(tmp_path / "map.json", vertex_map)]
    code, out, err = run(capsys, *argv)
    assert code == 10 and out == ""
    assert "1999999 missing" in err and len(err) < 300


@pytest.mark.parametrize("data", [
    {"facets": [[0]], "vertices": True},  # a JSON boolean is no vertex count
    {"facets": [[None, 1]]},              # ids are checked before they are sorted
    {"facets": [[0, 1.5]]},
])
def test_non_integer_vertex_data_exits_ten(tmp_path, capsys, data):
    code, _, err = run(capsys, "build", write_json(tmp_path / "x.json", data))
    assert code == 10 and "Traceback" not in err


def test_boolean_witness_embedding_exits_ten(tmp_path, capsys):
    triangle = write_json(tmp_path / "tri.json", {"facets": [[0, 1, 2]]})
    witness = write_json(tmp_path / "w.json", {"supercomplex": {"facets": [[0, 1, 2]]},
                                               "embedding": [True, 0, 2]})
    code, out, err = run(capsys, "classify", triangle, "--witness", witness)
    assert code == 10 and out == "" and "list of integers" in err


# -- homology ------------------------------------------------------------------------


def test_homology_table_golden(capsys):
    code, out, err = run(capsys, "homology", "--fixture", "rp2_6",
                         "--primes", "2,3")
    assert code == 0
    assert "Z/2" in out
    assert "universal-coefficient cross-check: ok" in out
    # mod-2 column shows rank 1 in every degree, mod-3 only in degree 0
    lines = out.strip().split("\n")
    assert any(line.startswith("1") and "Z/2" in line for line in lines)


def test_homology_rp2_flag_output_pinned(capsys):
    code, out, err = run(capsys, "homology", "--fixture", "rp2_flag")
    assert code == 0 and err == ""
    assert out == (
        "complex rp2_flag: f-vector (31, 90, 60), chi 1\n"
        "degree  H_i(Z)          b(Q)  b(F_2)\n"
        "0       Z               1     1     \n"
        "1       Z/2             0     1     \n"
        "2       0               0     1     \n"
        "universal-coefficient cross-check: ok\n")


def test_homology_default_primes_are_torsion_primes(capsys):
    code, out, _ = run(capsys, "homology", "--fixture", "moore", "--q", "5")
    assert code == 0
    assert "b(F_2)" in out and "b(F_5)" in out and "b(F_3)" not in out


def test_homology_json_payload(tmp_path, capsys):
    target = tmp_path / "h.json"
    code, out, err = run(capsys, "homology", "--fixture", "rp2_6",
                         "--primes", "2", "-o", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["uct_check"] == "ok"
    assert payload["f_vector"] == [6, 15, 10]
    assert "cross-check: ok" in err


def test_homology_rejects_non_prime(capsys):
    code, _, err = run(capsys, "homology", "--fixture", "cycle", "--n", "4",
                       "--primes", "6")
    assert code == 14


@pytest.mark.parametrize("primes", ["", ",", " , "])
def test_homology_primes_naming_no_prime_is_usage_error(tmp_path, capsys, primes):
    # an empty list would build no mod-p table, so the universal-coefficient
    # cross-check would report "ok" having checked nothing
    target = tmp_path / "h.json"
    code, out, err = run(capsys, "homology", "--fixture", "rp2_6", "--primes", primes,
                         "-o", str(target))
    assert code == 10
    assert out == "" and not target.exists()
    assert "--primes names no prime" in err and "cross-check" not in err


@pytest.mark.parametrize("make", [
    lambda: from_facets([range(20)]),
    lambda: join(fixture("rp2_flag"), fixture("moore_flag", q=3)),
    lambda: join(fixture("moore", q=3), fixture("moore", q=5)),
], ids=["facet(20)", "rp2_flag*moore_flag(3)", "moore(3)*moore(5)"])
def test_homology_builds_only_the_join_factors(tmp_path, monkeypatch, capsys, make):
    # the whole complex would have 2^20 - 1 faces, or 9,720 facets; a join
    # that is not flag splits all the same.  One chain complex is built per
    # distinct factor: the 20-vertex facet is 20 equal points, built once
    path = write_json(tmp_path / "L.json", complex_to_json_dict(make()))
    built = []
    real_plan = homology_module.cube_facets

    def plan(x, i):  # simplicial_chain_complex plans degrees 1..dim + 1
        if i == 1:
            built.append(x.facets)
        return real_plan(x, i)

    monkeypatch.setattr(homology_module, "cube_facets", plan)
    code, out, _ = run(capsys, "homology", path)
    assert code == 0 and "cross-check: ok" in out
    factors = join_factors(rio.load_complex(path))
    assert len(factors) > 1
    assert sorted(built) == sorted({f.facets for f in factors})


def test_growth_reduces_each_support_complex_of_equal_factors_once(monkeypatch, capsys):
    # the octahedron is S^0 * S^0 * S^0, one S^0 object three times; its
    # four support complexes (T = {}, {0}, {1}, V) are reduced once for both
    # moduli and all three factors, in one batch, and its flag check is one
    # clique search
    factors = join_factors(fixture("octahedron"))
    assert len(factors) == 3 and all(f is factors[0] for f in factors)
    reduced, batches, searched = [], [], []
    real_betti, real_cliques = growth_module.betti_Fp, simplicial._maximal_cliques

    def betti(cc, p, blocks):
        batches.append(blocks)
        dims = tuple(d // blocks for d in cc.dims)
        for b in range(blocks):  # block b's entries, at their positions in the block
            reduced.append((dims, tuple(
                tuple(sorted(((r - b * dims[i - 1], c - b * dims[i]), v)
                             for (r, c), v in cc.boundary(i).entries.items()
                             if r // dims[i - 1] == b))
                for i in range(1, cc.top + 1))))
        return real_betti(cc, p, blocks)

    monkeypatch.setattr(growth_module, "betti_Fp", betti)
    monkeypatch.setattr(simplicial, "_maximal_cliques",
                        lambda x: searched.append(x.facets) or real_cliques(x))
    code, out, _ = run(capsys, "growth", "--fixture", "octahedron", "--moduli", "2,3",
                       "--prime", "2")
    assert code == 0 and len(out.split()) == 1 + 2 * 4  # header, degrees 0..3 per cover
    assert batches == [4]
    assert len(reduced) == len(set(reduced)) == 4
    assert all(dims == (1, 2) for dims, _ in reduced)
    assert searched == [((0,), (1,))]


def test_homology_runs_no_clique_search(tmp_path, monkeypatch, capsys):
    # the split of L into join factors does not need to know whether L is flag
    sd2 = barycentric_subdivision(barycentric_subdivision(fixture("rp2_flag")).complex)
    path = write_json(tmp_path / "L.json", complex_to_json_dict(sd2.complex))
    original = simplicial._maximal_cliques
    searched = []
    monkeypatch.setattr(simplicial, "_maximal_cliques",
                        lambda x: searched.append(x.n_vertices) or original(x))
    code, out, _ = run(capsys, "homology", path)
    assert code == 0 and "cross-check: ok" in out
    assert searched == []


def test_homology_of_a_facet_adds_z_in_degree_zero_only(tmp_path, capsys):
    path = write_json(tmp_path / "L.json", {"facets": [list(range(20))]})
    code, out, _ = run(capsys, "homology", path, "--primes", "2,3")
    assert code == 0
    rows = out.strip().split("\n")[2:-1]
    assert len(rows) == 20
    assert rows[0].split() == ["0", "Z", "1", "1", "1"]
    assert all(row.split()[1:] == ["0", "0", "0", "0"] for row in rows[1:])


MERSENNE_61 = str(2 ** 61 - 1)


@pytest.mark.parametrize("argv", [
    ("homology", "--fixture", "cycle", "--n", "4", "--primes", MERSENNE_61),
    ("growth", "--fixture", "cycle", "--n", "4", "--prime", MERSENNE_61, "--moduli", "2"),
])
def test_large_prime_is_accepted_at_once(capsys, argv):
    # trial division up to sqrt(p) would take hours here
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 0, err


@pytest.mark.parametrize("command, flag", [("homology", "--primes"), ("growth", "--prime")])
def test_prime_of_two_to_the_64_or_more_exits_fourteen(capsys, command, flag):
    argv = [command, "--fixture", "cycle", "--n", "4", flag, str(2 ** 64 + 13)]
    code, out, err = run(capsys, *argv, *(["--moduli", "2"] if command == "growth" else []))
    assert code == 14
    assert "decided below 2^64" in err and "Traceback" not in err


# -- classify ------------------------------------------------------------------------


def test_classify_positive_exit_zero(capsys):
    code, out, err = run(capsys, "classify", "--fixture", "cycle", "--n", "5")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["outcome"] == "PositiveEntropy"
    assert verdict["certificate"]["kind"] == "TopCohomologyNonzero"
    assert "verdict: PositiveEntropy" in err


def test_classify_undetermined_exit_three(capsys):
    code, out, err = run(capsys, "classify", "--fixture", "dunce_flag")
    assert code == 3
    assert json.loads(out)["outcome"] == "Undetermined"


@pytest.mark.parametrize("budget", ["-3", "-1"])
def test_classify_negative_budget_is_usage_error(capsys, budget):
    # one deterministic collapse pass decides dimension 2; there is no
    # restart count to set, so --budget is refused whatever its value
    code, out, err = run(capsys, "classify", "--fixture", "cycle", "--budget", budget)
    assert code == 10
    assert out == ""
    assert "unrecognized arguments: --budget" in err
    assert "Traceback" not in err


def test_classify_stuck_complex_with_free_faces_builds_one_face_state(
        tmp_path, monkeypatch, capsys):
    # dunce_flag with a flap, a triangle on a new vertex glued to one edge:
    # acyclic, with free faces, and stuck once the flap is collapsed
    dunce = fixture("dunce_flag")
    a, b = dunce.facets[0][:2]
    x = from_facets(list(dunce.facets) + [(a, b, dunce.n_vertices)])
    path = write_json(tmp_path / "flapped.json", complex_to_json_dict(x))
    built = []
    state = collapse_module._State
    monkeypatch.setattr(collapse_module, "_State",
                        lambda faces: built.append(1) or state(faces))
    code, out, _ = run(capsys, "classify", path)
    assert code == 3
    assert json.loads(out)["outcome"] == "Undetermined"
    assert built == [1]


@pytest.mark.parametrize("make", [
    lambda: fixture("rp2_flag"),
    lambda: barycentric_subdivision(fixture("octahedron")).complex,
    lambda: cone(fixture("moore_flag", q=3)),
])
def test_classify_builds_one_chain_complex_per_complex(tmp_path, monkeypatch, capsys, make):
    # classification, its prime scan and the certificate replay share each build
    path = write_json(tmp_path / "L.json", complex_to_json_dict(make()))
    asked, built = [], []
    real_get, real_plan = (homology_module.simplicial_chain_complex,
                           homology_module.cube_facets)

    def get(x):
        cc = real_get(x)
        asked.append((id(x), id(cc)))
        return cc

    def plan(x, i):  # simplicial_chain_complex writes degrees 1..dim + 1
        if i == 1:
            built.append(id(x))
        return real_plan(x, i)

    monkeypatch.setattr(homology_module, "simplicial_chain_complex", get)
    monkeypatch.setattr(homology_module, "cube_facets", plan)
    code, _, err = run(capsys, "classify", path)
    assert code == 0 and "replay ok" in err
    # one build per complex asked for, and every answer is that build
    assert sorted(built) == sorted({x for x, _ in asked})
    assert len(set(asked)) == len(built)
    assert len(asked) > len(built)


def test_classify_non_flag_exit_eleven(capsys):
    code, out, err = run(capsys, "classify", "--fixture", "rp2_6")
    assert code == 11
    assert "non-face" in err


def test_classify_unknown_fixture_exit_ten(capsys):
    code, _, err = run(capsys, "classify", "--fixture", "klein_bottle")
    assert code == 10


# the README's exit-code table, one row per error class
ERROR_CODES = {errors.RaagError: 10, errors.MalformedComplexError: 10,
               errors.FixtureError: 10, errors.NotFlagError: 11,
               errors.WitnessRejectedError: 12, errors.QuotientDegenerateError: 13,
               errors.CoverSpecError: 14, errors.CorruptComplexError: 15}


@pytest.mark.parametrize("error", list(ERROR_CODES), ids=lambda e: e.__name__)
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error):
    assert set(ERROR_CODES) == {errors.RaagError, *errors.RaagError.__subclasses__()}

    def fail(ns):
        raise error("boom")
    monkeypatch.setitem(cli._DISPATCH, "homology", fail)
    code, out, err = run(capsys, "homology", "--fixture", "cycle")
    assert (code, out, err) == (ERROR_CODES[error], "", "error: boom\n")


@pytest.mark.parametrize("argv, param", [
    (["--fixture", "moore_flag", "--n", "7", "--q", "2"], "n"),
    (["--fixture", "octahedron", "--n", "5"], "n"),
    (["--fixture", "cycle", "--n", "5", "--q", "3"], "q"),
])
def test_classify_unused_fixture_parameter_exit_ten(capsys, argv, param):
    code, out, err = run(capsys, "classify", *argv)
    assert code == 10 and out == ""
    assert err == f"error: fixture {argv[1]} takes no parameter {param}\n"


def test_classify_with_witness_file(tmp_path, capsys):
    disk = _polygon_disk(6)
    annulus, _ = induced_subcomplex(disk, range(12))
    annulus_path = write_json(tmp_path / "annulus.json", complex_to_json_dict(annulus))
    witness_path = write_json(
        tmp_path / "witness.json",
        EmbeddingWitness(disk, tuple(range(12))).to_json_dict())

    code, out, _ = run(capsys, "classify", annulus_path)
    assert code == 3
    code, out, _ = run(capsys, "classify", annulus_path,
                       "--witness", witness_path)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["outcome"] == "ZeroEntropy"
    assert verdict["certificate"]["kind"] == "EmbeddingWitness"


def test_classify_rejected_witness_exit_twelve(tmp_path, capsys):
    disk = _polygon_disk(6)
    annulus, _ = induced_subcomplex(disk, range(12))
    annulus_path = write_json(tmp_path / "annulus.json", complex_to_json_dict(annulus))
    bad_path = write_json(tmp_path / "bad.json",
                          EmbeddingWitness(disk, (0, 1)).to_json_dict())
    code, _, err = run(capsys, "classify", annulus_path, "--witness", bad_path)
    assert code == 12
    assert "witness" in err


def test_classify_flag_completion_changes_verdict(tmp_path, capsys):
    hollow = write_json(tmp_path / "c3.json",
                        {"facets": [[0, 1], [1, 2], [0, 2]], "vertices": 3})
    code, _, _ = run(capsys, "classify", hollow)
    assert code == 11
    code, out, err = run(capsys, "classify", hollow, "--flag-completion")
    assert code == 0
    assert json.loads(out)["outcome"] == "ZeroEntropy"
    assert "NOTE" in err


# -- growth --------------------------------------------------------------------------


def _refuse_enumeration(spec):
    raise AssertionError("the deck group was enumerated")


def test_growth_csv_golden(monkeypatch, capsys):
    # standard specs are read off the support table: no cover is built
    monkeypatch.setattr(FiniteQuotientSpec, "cayley_table", _refuse_enumeration)
    code, out, err = run(capsys, "growth", "--fixture", "discrete", "--n", "2",
                         "--prime", "2", "--moduli", "2,3")
    assert code == 0
    lines = [l.rstrip("\r") for l in out.strip().split("\n")]
    assert lines[0] == "modulus_vector,index,degree,betti,ratio_num,ratio_den,reference"
    assert lines[1] == "2x2,4,0,1,1,4,0"
    assert lines[2] == "2x2,4,1,5,5,4,1"
    assert lines[3] == "3x3,9,0,1,1,9,0"
    assert lines[4] == "3x3,9,1,10,10,9,1"
    assert "caveat" in err
    assert "EXACT" in err


# the families a standard sweep runs: free groups, the torus and C_4 have
# closed forms, C_5 and the path do not
SWEEP_FAMILIES = [("discrete", 2, True), ("discrete", 3, True), ("simplex", 1, True),
                  ("cycle", 4, True), ("cycle", 5, False), ("path", 4, False)]


@pytest.mark.parametrize("prime", [2, 3])
@pytest.mark.parametrize("name, n, derivable", SWEEP_FAMILIES)
def test_growth_prints_the_experiment_of_each_sweep_family(capsys, name, n, derivable, prime):
    x = fixture(name, n=n)
    series = growth_experiment(x, [standard_spec(x, k) for k in (2, 3, 4)], prime)
    code, out, err = run(capsys, "growth", "--fixture", name, "--n", str(n),
                         "--prime", str(prime), "--moduli", "2,3,4")
    assert code == 0
    assert out == series.to_csv() + "\n"
    closed = [l for l in err.splitlines() if l.startswith("closed form")]
    assert [l.endswith(": EXACT") for l in closed] == ([True] if derivable else [])


def test_growth_rejects_bad_prime_and_moduli(capsys):
    code, _, err = run(capsys, "growth", "--fixture", "discrete", "--n", "2",
                       "--prime", "4", "--moduli", "2")
    assert code == 14
    code, _, err = run(capsys, "growth", "--fixture", "discrete", "--n", "2",
                       "--prime", "2", "--moduli", "3,2")
    assert code == 14
    code, _, err = run(capsys, "growth", "--fixture", "discrete", "--n", "2",
                       "--prime", "2", "--moduli", "0")
    assert code == 14


def test_growth_non_flag_exit_eleven(capsys):
    code, _, err = run(capsys, "growth", "--fixture", "rp2_6",
                       "--prime", "2", "--moduli", "2")
    assert code == 11


def test_growth_of_empty_complex(tmp_path, capsys):
    # the empty graph has no maximal clique, not the clique ()
    empty = write_json(tmp_path / "empty.json", {"facets": []})
    code, out, err = run(capsys, "growth", empty, "--prime", "2", "--moduli", "2")
    assert code == 0
    assert out.split() == [
        "modulus_vector,index,degree,betti,ratio_num,ratio_den,reference",
        "1,1,0,1,1,1,1"]
    # the reference is h(V), the reduced betti number of the empty complex in
    # degree -1
    assert "reference (reduced betti of the defining complex, one degree down): [1]" in err


def test_growth_oversized_cover_exits_fourteen_before_enumerating(monkeypatch, capsys):
    # rp2_flag has 31 vertices: (Z/2)^31 would have 2^31 deck elements
    monkeypatch.setattr(FiniteQuotientSpec, "cayley_table", _refuse_enumeration)
    start = time.perf_counter()
    code, out, err = run(capsys, "growth", "--fixture", "rp2_flag",
                         "--prime", "2", "--moduli", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 14
    assert out == ""
    assert "index 2147483648" in err and "Traceback" not in err


def test_growth_charges_the_cover_before_building_its_spec(tmp_path):
    # cycle(5000) at k = 2 reads 2^5000 rows: refused from L and k before the
    # 5000 x 5000 residues of standard_spec or their Smith normal form are
    # built, under a 1 GiB address space; the refusal line names an index
    # past the int-to-str digit limit by a power of two; a complex that is
    # not flag, of as many vertices, exits 11 first, and builds no spec
    src = str(Path(raag.__file__).resolve().parents[1])
    code = ("import contextlib, io, resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from raag.cli import main\n"
            "start = time.perf_counter()\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    rc = main(sys.argv[1:])\n"
            "print(rc, time.perf_counter() - start, repr(err.getvalue()))\n")
    hollow = write_json(tmp_path / "hollow.json",
                        {"facets": [[0, 1], [1, 2], [0, 2]] + [[v] for v in range(3, 5000)]})
    growth = ["growth", "--prime", "2", "--moduli", "2,3"]
    errs = []
    for argv, exit_code in ((growth + ["--fixture", "cycle", "--n", "5000"], "14"),
                            (growth + ["--fixture", "cycle", "--n", "15000"], "14"),
                            (growth + [hollow], "11")):
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        rc, seconds, err = proc.stdout.split(" ", 2)
        assert rc == exit_code and float(seconds) < 1.0
        assert "error: " in err and "Traceback" not in err
        errs.append(err)
    assert "cover of index 2^15000 or more needs 2^15014 or more cells" in errs[1]


def test_growth_prints_integers_past_the_int_to_str_limit(capsys):
    # discrete(2) at k = 10^2200 - 1: the index k^2 = 10^4400 - 2 10^2200 + 1
    # and b_1 = k^2 + 1 have 4,400 digits, printed whole, and the digit limit
    # of the process is back after the call
    limit = sys.get_int_max_str_digits()
    k = "9" * 2200
    index = "9" * 2199 + "8" + "0" * 2199 + "1"
    b1 = index[:-1] + "2"
    code, out, err = run(capsys, "growth", "--fixture", "discrete", "--n", "2",
                         "--prime", "2", "--moduli", k)
    assert code == 0 and sys.get_int_max_str_digits() == limit
    rows = [l.rstrip("\r").split(",") for l in out.strip().split("\n")[1:]]
    assert rows == [[f"{k}x{k}", index, "0", "1", "1", index, "0"],
                    [f"{k}x{k}", index, "1", b1, b1, index, "1"]]
    assert f" {index} " in err and "EXACT" in err


def test_growth_standard_cover_is_bounded_by_its_table_entries(monkeypatch, capsys):
    # (Z/20)^5 has index 3,200,000, or 35.2 million cells in the cover, but
    # the support table reads 2^5 entries of 1 + 10 cells
    monkeypatch.setattr(FiniteQuotientSpec, "cayley_table", _refuse_enumeration)
    code, out, err = run(capsys, "growth", "--fixture", "cycle", "--n", "5",
                         "--prime", "2", "--moduli", "20")
    assert code == 0
    rows = [l.rstrip("\r").split(",") for l in out.strip().split("\n")[1:]]
    assert [r[1:4] for r in rows] == [["3200000", "0", "1"], ["3200000", "1", "38100"],
                                      ["3200000", "2", "3238099"]]


def test_growth_bound_counts_the_cells_of_each_join_factor(tmp_path, capsys):
    # the 6-fold join of S^0 has 12 vertices and 1 + f = 3^6 cells, so the
    # whole-L table would take 2^12 * 729 = 2,985,984 cells; its six factors
    # read 2^2 entries of 3 cells each, 72 in all, and every factor's double
    # cover of F_2 has betti numbers (1, 5)
    x = fixture("discrete", n=2)
    for _ in range(5):
        x = join(x, fixture("discrete", n=2))
    path = write_json(tmp_path / "s0_join6.json", complex_to_json_dict(x))
    code, out, err = run(capsys, "growth", path, "--prime", "2", "--moduli", "2")
    assert code == 0
    rows = [l.rstrip("\r").split(",") for l in out.strip().split("\n")[1:]]
    assert [int(r[3]) for r in rows] == [math.comb(6, i) * 5 ** i for i in range(7)]
    assert {r[1] for r in rows} == {str(2 ** 12)}


def test_growth_trivial_cover_of_many_vertices_reads_one_table_entry(monkeypatch, capsys):
    # with every k_v = 1 only T = {} has nonzero weight, out of 2^31 subsets
    monkeypatch.setattr(FiniteQuotientSpec, "cayley_table", _refuse_enumeration)
    start = time.perf_counter()
    code, out, err = run(capsys, "growth", "--fixture", "rp2_flag",
                         "--prime", "2", "--moduli", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    rows = [l.rstrip("\r").split(",") for l in out.strip().split("\n")[1:]]
    assert {r[0] for r in rows} == {"x".join(["1"] * 31)}
    # the Salvetti complex has zero boundaries: b_i counts the (i-1)-faces
    assert [",".join(r[1:]) for r in rows] == ["1,0,1,1,1,0", "1,1,31,31,1,0",
                                               "1,2,90,90,1,1", "1,3,60,60,1,1"]


# -- argument handling ------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 10


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["classify", "--help"]) == 0


def _fresh_call(argv):
    """(exit code, stdout, stderr) of argv in a new interpreter."""
    src = str(Path(raag.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "raag.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_is_built_once_and_every_call_starts_fresh(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli._build_parser.cache_clear()
    sequences = [
        # no pipeline step carries over to the plain build
        [["build", "--fixture", "cycle", "--n", "5", "--sd", "--cone"],
         ["build", "--fixture", "cycle", "--n", "5"]],
        # the hollow triangle is not flag: exit 0 with completion, 11 without
        [["classify", "--fixture", "cycle", "--n", "3", "--flag-completion"],
         ["classify", "--fixture", "cycle", "--n", "3"]],
        [["classify", "--fixture", "cycle", "--n", "5", "--budget", "-3"],
         ["classify", "--fixture", "cycle", "--n", "5"]],
        [["--help"], ["classify", "--help"]],
    ]
    fresh = {}
    for sequence in sequences:
        for argv in sequence:
            key = tuple(argv)
            if key not in fresh:
                fresh[key] = _fresh_call(argv)
            assert run(capsys, *argv) == fresh[key], argv
    assert [code for code, _, _ in fresh.values()] == [0, 0, 0, 11, 10, 0, 0, 0]
    assert built.count("raag") == 1


def test_import_loads_no_networkx_or_process_pool():
    # every CLI call pays for what importing the package imports
    src = str(Path(raag.__file__).resolve().parents[1])
    code = ("import sys, raag, raag.cli; print(sorted("
            "{'networkx', 'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.Tracer()
tracer.install()
import raag.cli, raag.growth
from raag.fixtures import fixture
from raag.models import FiniteQuotientSpec
codes = [raag.cli.main(["classify", "--fixture", "dunce_flag"]),
         raag.cli.main(["growth", "--fixture", "cycle", "--n", "4", "--prime", "2",
                        "--moduli", "2"])]
raag.growth.growth_experiment(fixture("cycle", n=4), [FiniteQuotientSpec((6,), ((1,),) * 4)], 2)
m = tracer.layer_metrics()
print(json.dumps([codes, m["collapse.attempts"], m["growth.growth_experiment.calls"]]))
"""


def test_benchmark_tracer_installs_and_counts():
    # perfbench/tracing.py wraps raag's functions by name and reads collapse's
    # arguments, so a renamed or deleted target fails here, not only in a
    # traced benchmark run
    root = Path(__file__).resolve().parents[1]
    src = str(Path(raag.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(root / "perfbench")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    codes, attempts, growth_calls = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [3, 0]
    assert attempts > 0 and growth_calls > 0


@pytest.mark.parametrize("workload", ["verdicts", "covers_many", "covers_large"])
def test_benchmark_workload_runs_correct(workload):
    # one traced pass of each perfbench workload on its real inputs, checked
    # by perfbench/check.py: the benchmark imports raag's API by name too
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=root)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stderr


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "raag.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "classify" in proc.stdout

