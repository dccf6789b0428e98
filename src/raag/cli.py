"""Command-line front end.

Four subcommands: build (construct and transform complexes), homology (exact
homology tables), classify (entropy verdict with certificate), growth (mod-p
betti numbers of finite covers).  Machine-readable output goes to stdout or
the -o file; human-readable summaries go to stderr, so pipes stay clean.

Exit codes: 0 success or classified; 3 undetermined; 10 malformed or
unreadable input, an unwritable -o path, stdout or stderr (a pipe whose
reader has gone), unknown fixture, a --n or --q the fixture does not take,
or usage error; 11 input not flag; 12 witness rejected; 13 degenerate
quotient; 14 bad cover spec, or a coefficient that is not a prime below 2^64
(primality is decided exactly up to there); 15 internal consistency failure;
20 unexpected error.  homology splits any join into its join factors, flag
or not, since the Kunneth formula holds for every join, and builds only
their chain complexes.  growth reads the betti numbers of its standard covers
off support rows of complexes the size of L's join factors and builds no
cover.  It refuses, with exit 14 and before building any spec, a cover
that would take more than models.MAX_COVER_CELLS (250,000) cells: moduli
k_v read, per join factor F, 2^|S_F| rows, S_F = {v in F : k_v > 1}, of 1 + f(F)
cells each, f(F) being the number of faces of F over all dimensions.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from typing import List, Optional, Sequence

from . import io as rio
from .classify import UNDETERMINED, classify, report
from .errors import MalformedComplexError, RaagError
from .fixtures import FIXTURE_NAMES, fixture
from .growth import check_prime, growth_experiment, support_cells
from .homology import homology_summary
from .models import check_cover_size, standard_spec
from .simplicial import (SimplicialComplex, barycentric_subdivision, cone,
                         flag_completion, is_flag, join, simplicial_quotient)

_FLAG_COMPLETION_NOTICE = (
    "NOTE: --flag-completion replaces the input by the clique complex of its "
    "1-skeleton; missing higher faces are filled in, which defines a "
    "different group than the raw input would.")


class _PipelineStep(argparse.Action):
    """Record transform flags in the order they appear on the command line."""

    def __call__(self, parser, namespace, values, option_string=None):
        steps = list(getattr(namespace, "pipeline", None) or [])
        steps.append((self.dest, values if values else None))
        namespace.pipeline = steps


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default=None,
                   help="facet-list JSON file (alternative to --fixture)")
    p.add_argument("--fixture", default=None, metavar="NAME",
                   help=f"named fixture; one of: {', '.join(FIXTURE_NAMES)}")
    p.add_argument("--n", type=int, default=None,
                   help="size parameter for parametrized fixtures")
    p.add_argument("--q", type=int, default=None,
                   help="torsion order for moore fixtures")
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="write the machine-readable result here instead of stdout")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; each parse_args
    call still fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="raag",
        description="classify right-angled Artin groups by minimal volume "
                    "entropy and run homology-growth experiments on finite "
                    "covers of their cube complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a complex and apply transforms")
    _add_input_args(b)
    b.add_argument("--sd", nargs=0, action=_PipelineStep,
                   help="barycentric subdivision (pipeline step)")
    b.add_argument("--cone", nargs=0, action=_PipelineStep,
                   help="cone with a fresh apex (pipeline step)")
    b.add_argument("--join", action=_PipelineStep, metavar="PATH",
                   help="join with the complex in PATH (pipeline step)")
    b.add_argument("--quotient", action=_PipelineStep, metavar="MAPFILE",
                   help="simplicial quotient along a JSON vertex map (pipeline step)")
    b.add_argument("--flag-completion", nargs=0, action=_PipelineStep,
                   help="replace a graph by its clique complex (pipeline step; "
                        "changes the group, prints a notice)")

    h = sub.add_parser("homology", help="exact homology over Z and F_p")
    _add_input_args(h)
    h.add_argument("--primes", default=None, metavar="P,P,...",
                   help="comma-separated primes for mod-p tables "
                        "(default: 2 plus every torsion prime)")

    c = sub.add_parser("classify", help="entropy verdict with certificate")
    _add_input_args(c)
    c.add_argument("--witness", default=None, metavar="PATH",
                   help="embedding-witness JSON for the dimension-2 gap")
    c.add_argument("--flag-completion", action="store_true",
                   help="classify the clique complex of the input's 1-skeleton "
                        "(changes the group, prints a notice)")

    g = sub.add_parser("growth", help="mod-p betti growth over finite covers")
    _add_input_args(g)
    g.add_argument("--prime", type=int, required=True, help="coefficient prime p")
    g.add_argument("--moduli", required=True, metavar="K,K,...",
                   help="comma-separated moduli; modulus k means the cover "
                        "with every generator sent to its own Z/k factor")
    return parser


def _int_list(text: str, what: str) -> List[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise MalformedComplexError(f"{what} must be a comma-separated integer list, got {text!r}")


def _resolve_input(ns) -> SimplicialComplex:
    if ns.fixture is not None and ns.input is not None:
        raise MalformedComplexError("give either an input file or --fixture, not both")
    if ns.fixture is not None:
        return fixture(ns.fixture, n=ns.n, q=ns.q)
    if ns.input is not None:
        return rio.load_complex(ns.input)
    raise MalformedComplexError("no input: give a facet-list JSON file or --fixture NAME")


def _emit(ns, text: str) -> None:
    if ns.output:
        try:
            with open(ns.output, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as e:
            raise RaagError(f"cannot write {ns.output}: {e}") from e
    else:
        print(text)


def _flag_line(x: SimplicialComplex) -> str:
    ok, witness = is_flag(x)
    return "flag: yes" if ok else f"flag: no (minimal non-face {witness})"


def cmd_build(ns) -> int:
    x = _resolve_input(ns)
    for step, arg in getattr(ns, "pipeline", None) or []:
        if step == "sd":
            x = barycentric_subdivision(x).complex
        elif step == "cone":
            x = cone(x)
        elif step == "join":
            x = join(x, rio.load_complex(arg))
        elif step == "quotient":
            x = simplicial_quotient(x, rio.load_vertex_map(arg))
        elif step == "flag_completion":
            print(_FLAG_COMPLETION_NOTICE, file=sys.stderr)
            x = flag_completion(x)
    _emit(ns, rio.complex_json(x))
    print(f"f-vector {x.f_vector()}; {_flag_line(x)}", file=sys.stderr)
    return 0


def cmd_homology(ns) -> int:
    x = _resolve_input(ns)
    primes = None if ns.primes is None else _validated_primes(_int_list(ns.primes, "--primes"))
    summary = homology_summary(x, primes=primes)  # raises if the UCT check fails
    name = x.name or (ns.input or "complex")
    lines = [f"complex {name}: f-vector {x.f_vector()}, chi {x.euler_characteristic()}",
             "degree  H_i(Z)          b(Q)" + "".join(f"  b(F_{p})" for p in summary.primes())]
    for i in range(summary.dim + 1):
        lines.append(f"{i:<7} {summary.group_text(i):<15} {summary.betti[i]:<4}"
                     + "".join(f"  {table[i]:<6}" for _, table in summary.betti_mod_p))
    lines.append("universal-coefficient cross-check: ok")
    if ns.output:
        payload = {"complex": name, "f_vector": list(x.f_vector()),
                   "chi": x.euler_characteristic(), "summary": summary.to_json_dict(),
                   "uct_check": "ok"}
        _emit(ns, json.dumps(payload, indent=2, sort_keys=True))
    print("\n".join(lines), file=sys.stderr if ns.output else sys.stdout)
    return 0


def _validated_primes(ps: Sequence[int]) -> List[int]:
    if not ps:  # no table would be built, and the cross-check would check nothing
        raise MalformedComplexError("--primes names no prime")
    for p in ps:
        check_prime(p)
    return sorted(set(ps))


def cmd_classify(ns) -> int:
    x = _resolve_input(ns)
    if ns.flag_completion:
        print(_FLAG_COMPLETION_NOTICE, file=sys.stderr)
        x = flag_completion(x)
    witness = rio.load_witness(ns.witness) if ns.witness else None
    verdict = classify(x, witness=witness)
    _emit(ns, verdict.to_json())
    print(report(x, verdict), file=sys.stderr)
    return 3 if verdict.outcome == UNDETERMINED else 0


def cmd_growth(ns) -> int:
    x = _resolve_input(ns)
    moduli = _int_list(ns.moduli, "--moduli")
    if not is_flag(x)[0]:
        moduli = []  # growth_experiment exits 11 before it reads a spec
    n = x.n_vertices
    for k in moduli:  # (Z/k)^n is charged before its n x n residues are built
        if k > 0:
            check_cover_size(x, k ** n, support_cells(x, [k] * n))
    specs = [standard_spec(x, k) for k in moduli]
    # an index or betti number can pass Python's int-to-str digit limit (4,300
    # by default, from 3.10.7 on); it is restored for in-process callers of main
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        series = growth_experiment(x, specs, prime=ns.prime)
        _emit(ns, series.to_csv())
        print(series.render_report(), file=sys.stderr)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


_DISPATCH = {
    "build": cmd_build,
    "homology": cmd_homology,
    "classify": cmd_classify,
    "growth": cmd_growth,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 10
    try:
        code = _run(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError as e:
        _drop_lost_streams(e)
        return 10


def _run(ns) -> int:
    """The subcommand's exit code; a RaagError or an unexpected error is
    reported on stderr, whose loss main handles."""
    try:
        return _DISPATCH[ns.command](ns)
    except BrokenPipeError:
        raise
    except RaagError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except Exception:
        traceback.print_exc()
        return 20


def _drop_lost_streams(e: BrokenPipeError) -> None:
    """After stdout or stderr lost its reader, say so where a reader is left.

    A pipe never gets its reader back, so if the error line reaches stderr,
    stdout was the one lost; otherwise stderr was, and stdout may still hold
    output for a live reader.  A lost stream is pointed at devnull, so what
    stays buffered goes nowhere and the interpreter's last flush cannot fail.
    """
    lost = [sys.stdout]
    try:
        print(f"error: cannot write to stdout: {e}", file=sys.stderr)
    except BrokenPipeError:
        lost = [sys.stderr]
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            lost.append(sys.stdout)
    for stream in lost:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


if __name__ == "__main__":
    sys.exit(main())
