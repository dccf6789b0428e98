"""Span recorder that wraps raag's public functions from outside the package.

`Tracer.install()` replaces each target function at every place it is bound
(the defining module, every module that imported it by name, the package
namespace; methods on their class), so a call is recorded whichever name the
caller used.  Each call appends one span [name, start, end, parent] to an
in-memory list; nothing is written until `dump()` at the end of the run.
Counts are taken from arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

# (module, attribute, span name); attribute "Class.method" wraps a method
TARGETS = (
    ("simplicial", "from_facets", "simplicial.from_facets"),
    ("simplicial", "is_flag", "simplicial.is_flag"),
    ("simplicial", "join_factors", "simplicial.join_factors"),
    ("simplicial", "barycentric_subdivision", "simplicial.barycentric_subdivision"),
    ("simplicial", "join", "simplicial.join"),
    ("linalg", "smith_normal_form", "linalg.smith_normal_form"),
    ("linalg", "rank_mod_p", "linalg.rank_mod_p"),
    ("homology", "simplicial_chain_complex", "homology.simplicial_chain_complex"),
    ("homology", "ChainComplexZ.validate", "homology.validate"),
    ("homology", "homology_Z", "homology.homology_Z"),
    ("homology", "betti_Fp", "homology.betti_Fp"),
    ("homology", "flag_reduced_summary", "homology.flag_reduced_summary"),
    ("homology", "top_cohomology_nonzero", "homology.top_cohomology_nonzero"),
    ("models", "FiniteQuotientSpec.deck_group", "models.deck_group"),
    ("models", "CubeComplex.chain_complex", "models.cover_chain_complex"),
    ("collapse", "collapse", "collapse.collapse"),
    ("collapse", "replay_collapse", "collapse.replay_collapse"),
    ("classify", "classify", "classify.classify"),
    ("classify", "replay_certificate", "classify.replay_certificate"),
    ("classify", "report", "classify.report"),
    ("growth", "growth_experiment", "growth.growth_experiment"),
    ("io", "load_complex", "io.load_complex"),
    ("cli", "main", "cli.main"),
    ("fixtures", "fixture", "fixtures.fixture"),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)
COUNT_NAMES = (
    "simplicial.from_facets.simplices_in",
    "linalg.rank_mod_p.nnz_in",
    "linalg.smith_normal_form.nnz_in",
    "models.cover_cells",
    "collapse.attempts",
)


def _first_arg(fn: Callable, args, kwargs):
    return args[0] if args else kwargs[next(iter(inspect.signature(fn).parameters))]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {c: 0 for c in COUNT_NAMES}
        self._stack: List[int] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(fn, args, kwargs) if before else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(fn, args, kwargs, state, result)
            return result

        return traced

    def _before_simplicial_from_facets(self, fn, args, kwargs):
        self.counts["simplicial.from_facets.simplices_in"] += len(_first_arg(fn, args, kwargs))

    def _before_linalg_rank_mod_p(self, fn, args, kwargs):
        self.counts["linalg.rank_mod_p.nnz_in"] += _first_arg(fn, args, kwargs).nnz

    def _before_linalg_smith_normal_form(self, fn, args, kwargs):
        self.counts["linalg.smith_normal_form.nnz_in"] += _first_arg(fn, args, kwargs).nnz

    def _before_models_cover_chain_complex(self, fn, args, kwargs):
        return args[0]._cc is None  # the first call builds, later ones hit the cache

    def _after_models_cover_chain_complex(self, fn, args, kwargs, built, result):
        if built:
            self.counts["models.cover_cells"] += sum(result.dims)

    def _after_collapse_collapse(self, fn, args, kwargs, state, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        if bound.arguments["x"].is_empty():
            return
        if result is None:
            attempts = bound.arguments["budget"] + 1
        elif result.seed is None:
            attempts = 1
        else:
            attempts = result.seed + 2
        self.counts["collapse.attempts"] += attempts

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each of its binding sites in the loaded package."""
        for modname, _, _ in TARGETS:
            importlib.import_module(f"raag.{modname}")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "raag" or k.startswith("raag."))]
        for modname, attr, name in TARGETS:
            owner = sys.modules[f"raag.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(name, orig)
            sites = 0
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
                        sites += 1
            if sites == 0:
                raise RuntimeError(f"no binding site found for {name}")

    # -- reduction ---------------------------------------------------------------

    def layer_metrics(self, window: Optional[tuple] = None) -> Dict[str, float]:
        """Inclusive seconds, self seconds and calls per span name, plus counts.

        Self time is a span's duration minus the durations of its direct
        children.  Inclusive time counts only the outermost span of a name, so
        a recursive call is not counted twice.  With window=(t0, t1) the sum of
        top-level span durations inside it is reported as trace.top_spans_s.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.s"] += dur
        out.update(self.counts)
        if window is not None:
            t0, t1 = window
            out["trace.top_spans_s"] = sum(e - s for _, s, e, par in spans
                                           if par < 0 and t0 <= s and e <= t1)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: {"spans": [[name, start, end, parent], ...]}."""
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
