"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 10 --trace 0

Runs the workload's jobs in a fresh single-threaded interpreter (worker.py),
in rounds, until --seconds have gone by; the few jobs marked "once" run a
single time, between rounds.  A job's latency is the median of its runs,
which evens out the short slow stretches that other tenants of a shared
machine cause; wall_s is the sum of those latencies, one pass over all jobs.
Every time is scaled to reference seconds by the calibration kernel of
calibrate.py, timed in the same process around it, which removes most of the
drift of the machine's speed between runs.  Every output is checked
by check.py, which does not import raag.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of one traced pass instead, in raw seconds.  Set-up
time is the median over SETUP_SAMPLES fresh processes, each scaled by kernel
runs made during its own set-up, half of them started before the jobs' process
and half after it.  Inputs, results and spans go to
.perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verdicts", "covers_many", "covers_large")
# set-up processes per run, the run's own included; half run before it and
# half after, so that their median spans the run instead of a few seconds.
# Fewer on verdicts, whose set-up takes 1.3 s against 0.3 s.
SETUP_SAMPLES = {"verdicts": 5, "covers_many": 11, "covers_large": 11}
WORKER_TIMEOUT_S = 170


def _spawn(ns, work: Path, result: Path, setup_only: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RAAG_THREADS"}
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", ns.workload,
            "--seed", str(ns.seed), "--seconds", str(ns.seconds), "--work", str(work),
            "--result", str(result), "--trace", str(ns.trace)]
    if setup_only:
        argv.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], env=env,
                          cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if not (ROOT / "src" / "raag" / "__init__.py").is_file():
        print(f"no raag package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracles.py").is_file():
        print(f"no dense oracles at {ROOT / 'tests' / 'oracles.py'}", file=sys.stderr)
        return 2
    import check
    import selftest

    # a checker that accepts a wrong answer would make "correct" meaningless
    problems = [f"checker self-test: {label}" for label, ok, _ in selftest.run_cases() if not ok]

    base = ROOT / ".perfbench_work" / f"{ns.workload}-{ns.seed}-{ns.trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    work = base / "inputs"

    samples = 1 if ns.trace else SETUP_SAMPLES[ns.workload]
    before = [_spawn(ns, work, base / f"setup{k}.json", setup_only=True)
              for k in range(samples // 2)]
    res = _spawn(ns, work, base / "run.json", setup_only=False)
    jobs = json.loads((work / "jobs.json").read_text())
    problems += check.check_pass(ns.workload, work, jobs, res["outputs"])
    problems += [f"{name}: output differs between rounds" for name in res["changed"]]
    runs = [len(t) for t in res["job_s"]]
    attempted = sum(runs)
    failed = sum(n for n, o in zip(runs, res["outputs"])
                 if "error" in o or o.get("rc", 0) not in (0, 3))
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    if ns.trace:
        metrics = {name: {"value": value, "unit": "s" if name.endswith(("_s", ".s")) else "count"}
                   for name, value in res["layers"].items()}
    else:
        processes = before + [res] + [
            _spawn(ns, work, base / f"setup{k}.json", setup_only=True)
            for k in range(len(before), samples - 1)]
        setups = [p["setup_s"] * calibrate.REFERENCE_S / statistics.median(p["setup_probe_s"])
                  for p in processes]
        scale = calibrate.Scale(res["probe_s"])
        job_ms = [1000 * statistics.median(d * scale(t0, d) for t0, d in runs_of_job)
                  for runs_of_job in res["job_s"]]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(job_ms) / 1000, "unit": "s"},
            "job_p50_ms": {"value": statistics.median(job_ms), "unit": "ms"},
            "job_p90_ms": {"value": statistics.quantiles(job_ms, n=10, method="inclusive")[8],
                           "unit": "ms"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
        raw_wall = sum(statistics.median(d for _, d in t) for t in res["job_s"])
        print(f"{ns.workload} seed {ns.seed}: {len(jobs)} jobs run {attempted} times; "
              f"unscaled wall {raw_wall:.3f} s; set-ups unscaled "
              f"{', '.join(format(p['setup_s'], '.3f') for p in processes)} s, scaled "
              f"{', '.join(format(x, '.3f') for x in setups)} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
