"""The jobs of one benchmark run, in a fresh interpreter; started by run.py.

The process imports raag from the checkout's src/, writes the workload's
inputs with gen.py, then runs the jobs back to back in this single thread, in
rounds (see _rounds).  Set-up time runs from the moment the parent started
this process to the end of set-up, less the calibration kernel runs made
during it.  Outputs, exit codes, every job time and the
calibration kernel times of calibrate.py go to the --result JSON file;
run.py checks and aggregates them.  With --trace 1 the raag functions are
wrapped first (tracing.py), every job runs once without the calibration
probe, and the per-layer figures of that pass go to the result instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path
from typing import Optional

from calibrate import SETUP_PROBE_EVERY_S, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return t0, dt, {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _verdict_runner(work: Path, jobs):
    import raag.cli as cli

    def run(job):
        argv = ["classify", str(work / job["file"])]
        if "witness" in job:
            argv += ["--witness", str(work / job["witness"])]
        return _run_cli(cli, argv)
    return run


def _covers_many_runner(work: Path, jobs):
    import raag
    import raag.growth as growth
    bases = {n: raag.fixture("discrete", n=n) for n in sorted({j["n"] for j in jobs})}
    specs = [raag.FiniteQuotientSpec(moduli=tuple(j["moduli"]),
                                     images=tuple(map(tuple, j["images"])))
             for j in jobs]
    by_name = {j["name"]: (bases[j["n"]], spec) for j, spec in zip(jobs, specs)}

    def run(job):
        L, spec = by_name[job["name"]]
        t0 = time.perf_counter()
        try:
            series = growth.growth_experiment(L, [spec], 2)
        except Exception as e:  # a failed job is counted, not fatal
            return t0, time.perf_counter() - t0, {"error": repr(e)}
        dt = time.perf_counter() - t0
        cov = series.covers[0]
        return t0, dt, {"index": cov.index, "betti": list(cov.betti)}
    return run


def _covers_large_runner(work: Path, jobs):
    import raag.cli as cli

    def run(job):
        return _run_cli(cli, ["growth", str(work / job["file"]), "--prime",
                              str(job["prime"]), "--moduli", str(job["k"])])
    return run


RUNNERS = {"verdicts": _verdict_runner, "covers_many": _covers_many_runner,
           "covers_large": _covers_large_runner}
MIN_ROUNDS = 3
MIN_REPEAT_S = 8.0
SETUP_KERNELS = 12  # kernel runs right after set-up, to calibrate it


def _rounds(jobs, run, seconds: float, probe: Optional[Probe]):
    """Run the jobs; return per-job times, outputs, changed jobs, traced window.

    Without a calibration probe (a traced run) every job runs once, in order,
    and the window of that pass is returned.  Otherwise the repeatable jobs
    run in rounds for MIN_REPEAT_S / 2 seconds, then the jobs marked "once"
    run, then more rounds follow until the run has lasted `seconds`, the
    rounds have lasted MIN_REPEAT_S and there were at least MIN_ROUNDS.  A
    job's samples so come from two stretches of time.  Kernel runs of the
    probe that fell inside a job are taken off its time.
    """
    times = [[] for _ in jobs]  # [start, duration] per run of the job
    outputs = [None] * len(jobs)
    changed = []
    clock = time.perf_counter

    def one(i):
        t0, dt, output = run(jobs[i])
        if probe is not None:
            dt -= probe.spent_within(t0, t0 + dt)
        times[i].append([t0, dt])
        if outputs[i] is None:
            outputs[i] = output
        elif output != outputs[i] and jobs[i]["name"] not in changed:
            changed.append(jobs[i]["name"])

    t_start = clock()
    if probe is None:
        for i in range(len(jobs)):
            one(i)
        return times, outputs, changed, (t_start, clock())
    repeat = [i for i, job in enumerate(jobs) if not job.get("once")]
    rounds, repeat_s = 0, 0.0

    def more_rounds(until) -> None:
        nonlocal rounds, repeat_s
        while repeat and not until(sum(times[i][-1][1] for i in repeat) if rounds else 0.0):
            t0 = clock()
            for i in repeat:
                one(i)
            rounds += 1
            repeat_s += clock() - t0

    more_rounds(lambda nxt: rounds >= 1 and repeat_s + nxt > MIN_REPEAT_S / 2)
    for i, job in enumerate(jobs):
        if job.get("once"):
            one(i)
    more_rounds(lambda nxt: rounds >= MIN_ROUNDS and repeat_s >= MIN_REPEAT_S
                and clock() - t_start + nxt > seconds)
    return times, outputs, changed, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one benchmark run's jobs (internal)")
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="keep repeating rounds until this long after the first job")
    ap.add_argument("--work", required=True, help="directory for the inputs")
    ap.add_argument("--result", required=True, help="JSON file for the result")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ns = ap.parse_args(argv)

    setup_probe = None if ns.trace else Probe()
    if setup_probe is not None:
        setup_probe.start(SETUP_PROBE_EVERY_S)
    sys.path.insert(0, str(ROOT / "src"))
    import raag
    if not Path(raag.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"raag imported from {raag.__file__}, not from {ROOT / 'src'}")
    import gen

    tracer = None
    if ns.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    work = Path(ns.work)
    jobs = gen.generate(ns.workload, ns.seed, work)
    run = RUNNERS[ns.workload](work, jobs)
    if setup_probe is None:
        result = {"setup_s": time.monotonic() - ns.spawned_at}
    else:
        setup_probe.stop()
        setup_s = time.monotonic() - ns.spawned_at
        result = {"setup_s": setup_s - sum(d for _, d in setup_probe.times)}
        setup_probe.run(SETUP_KERNELS)
        result["setup_probe_s"] = [d for _, d in setup_probe.times]
    probe = None if tracer or ns.setup_only else Probe()
    if not ns.setup_only:
        if probe is not None:
            probe.start()
        try:
            times, outputs, changed, window = _rounds(jobs, run, ns.seconds, probe)
        finally:
            if probe is not None:
                probe.stop()
        result.update(job_s=times, outputs=outputs, changed=changed,
                      peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            layers = tracer.layer_metrics(window=window)
            layers["trace.wall_s"] = window[1] - window[0]
            result["layers"] = layers
            tracer.dump(Path(ns.result).with_suffix(".spans.json"))
    if probe is not None:
        result["probe_s"] = probe.times
    Path(ns.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
