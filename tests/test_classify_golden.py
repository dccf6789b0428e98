"""Golden pin of `raag classify` over the catalog of flag fixtures.

The catalog holds every flag fixture of the standard menu, the cone over it
and its barycentric subdivision.  Each complex goes through the
CLI as a facet-list file; its stdout (the verdict JSON) and exit code are
compared with tests/classify_catalog.golden.json.  To rewrite the golden file
after a deliberate change of output:

    PYTHONPATH=src python tests/test_classify_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from raag.cli import main
from raag.fixtures import standard_fixtures
from raag.simplicial import barycentric_subdivision, complex_to_json_dict, cone, is_flag

GOLDEN = Path(__file__).with_name("classify_catalog.golden.json")


def catalog():
    menu = {}
    for name, x in sorted(standard_fixtures().items()):
        if is_flag(x)[0]:
            menu[name] = x
            menu[f"cone_{name}"] = cone(x)
            menu[f"sd_{name}"] = barycentric_subdivision(x).complex
    return dict(sorted(menu.items()))


def classify_cli(x, directory):
    """(exit code, stdout) of `raag classify` on x written as a facet-list file."""
    path = Path(directory) / "complex.json"
    path.write_text(json.dumps(complex_to_json_dict(x)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["classify", str(path)])
    return code, out.getvalue()


CATALOG = catalog()


def test_catalog_has_45_complexes():
    assert len(CATALOG) == 45


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CATALOG)
def test_classify_output_matches_golden(name, golden, tmp_path):
    code, out = classify_cli(CATALOG[name], tmp_path)
    assert {"exit": code, "stdout": out} == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {}
        for name, x in CATALOG.items():
            code, out = classify_cli(x, tmp)
            pins[name] = {"exit": code, "stdout": out}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {GOLDEN}")
