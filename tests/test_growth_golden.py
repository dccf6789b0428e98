"""Golden pin of `raag growth` over the flag fixtures and the large covers.

The catalog runs every flag fixture of the standard menu at --moduli 2,3 and
--prime 2 and 3, the cone over the octahedron likewise, and the three large
covers (cycle(4) at k = 6, the octahedron at k = 3, cycle(5) at k = 4) at
either prime.  Each complex goes through the CLI as a facet-list file; its
stdout (the CSV) and exit code are compared with
tests/growth_catalog.golden.json.  Covers over the cell bound stay pinned as
refusals (exit 14).  To rewrite the golden file after a deliberate change of
output:

    PYTHONPATH=src python tests/test_growth_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from raag.cli import main
from raag.fixtures import fixture, standard_fixtures
from raag.simplicial import complex_to_json_dict, cone, is_flag

GOLDEN = Path(__file__).with_name("growth_catalog.golden.json")
LARGE = (("cycle(4)", fixture("cycle", n=4), 6), ("octahedron", fixture("octahedron"), 3),
         ("cycle(5)", fixture("cycle", n=5), 4))


def catalog():
    """name -> (complex, moduli argument, prime)."""
    menu = {name: x for name, x in standard_fixtures().items() if is_flag(x)[0]}
    menu["cone_octahedron"] = cone(fixture("octahedron"))
    runs = {}
    for p in (2, 3):
        for name, x in sorted(menu.items()):
            runs[f"{name} moduli=2,3 p={p}"] = (x, "2,3", p)
        for name, x, k in LARGE:
            runs[f"{name} moduli={k} p={p}"] = (x, str(k), p)
    return dict(sorted(runs.items()))


def growth_cli(x, moduli, prime, directory):
    """(exit code, stdout) of `raag growth` on x written as a facet-list file."""
    path = Path(directory) / "complex.json"
    path.write_text(json.dumps(complex_to_json_dict(x)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["growth", str(path), "--prime", str(prime), "--moduli", moduli])
    return code, out.getvalue()


CATALOG = catalog()


def test_catalog_has_38_runs():
    assert len(CATALOG) == 38


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CATALOG)
def test_growth_output_matches_golden(name, golden, tmp_path):
    code, out = growth_cli(*CATALOG[name], tmp_path)
    assert {"exit": code, "stdout": out} == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {}
        for name, args in CATALOG.items():
            code, out = growth_cli(*args, tmp)
            pins[name] = {"exit": code, "stdout": out}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {GOLDEN}")
