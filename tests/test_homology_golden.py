"""Golden pin of `raag homology` over the standard fixtures.

The catalog runs every fixture of the standard menu, flag or not, two joins
(one with a Tor term, one of three factors) and the empty complex, each at
the default primes and at --primes 2,3,5,7.  Each complex goes through the
CLI as a facet-list file, once printing its table to stdout and once
writing its JSON result with -o; both exit codes, the stdout and the JSON
text are compared with tests/homology_catalog.golden.json.  To rewrite the
golden file after a deliberate change of output:

    PYTHONPATH=src python tests/test_homology_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from raag.cli import main
from raag.fixtures import fixture, standard_fixtures
from raag.simplicial import complex_to_json_dict, from_facets, join

GOLDEN = Path(__file__).with_name("homology_catalog.golden.json")


def catalog():
    """name -> (complex, --primes argument or None)."""
    menu = dict(standard_fixtures())
    menu["rp2_6 * moore(2)"] = join(fixture("rp2_6"), fixture("moore", q=2))
    menu["cycle(4) * discrete(3)"] = join(fixture("cycle", n=4), fixture("discrete", n=3))
    menu["empty"] = from_facets([], name="empty")
    runs = {}
    for name, x in menu.items():
        runs[f"{name} primes=default"] = (x, None)
        runs[f"{name} primes=2,3,5,7"] = (x, "2,3,5,7")
    return dict(sorted(runs.items()))


def homology_cli(x, primes, directory):
    """Exit codes, stdout and -o JSON text of `raag homology` on x written as
    a facet-list file."""
    path = Path(directory) / "complex.json"
    path.write_text(json.dumps(complex_to_json_dict(x)))
    args = ["homology", str(path)] + ([] if primes is None else ["--primes", primes])
    pin = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        pin["exit"] = main(args)
    pin["stdout"] = out.getvalue()
    target = Path(directory) / "out.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        pin["output_exit"] = main(args + ["-o", str(target)])
    pin["output"] = target.read_text() if target.exists() else None
    return pin


CATALOG = catalog()


def test_catalog_has_52_runs():
    assert len(CATALOG) == 52


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CATALOG)
def test_homology_output_matches_golden(name, golden, tmp_path):
    assert homology_cli(*CATALOG[name], tmp_path) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: homology_cli(*args, tmp) for name, args in CATALOG.items()}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {GOLDEN}")
