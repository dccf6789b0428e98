"""Machine-speed calibration for the benchmark's timings.

On a shared machine other tenants slow every process on a core alike, and the
slowdown wanders: on the 2-vCPU virtual machine of the README's reference
figures the same job ran up to 1.8 times slower in one minute than in the
next.  The worker therefore runs a fixed
pure-Python kernel every PROBE_EVERY_S seconds while the jobs run (Probe),
and run.py scales every time by

    REFERENCE_S / median(kernel times near the measurement)

so times are reported in reference seconds: what they would have been had the
kernel taken REFERENCE_S, its usual time on that 2-core machine.  The speed
flips between states that last seconds, hence kernel times within WINDOW_S
of a measurement.  Ten covers_many runs read 4.4 to 7.8 s unscaled; scaled,
their quartiles are 2% of the median apart.

Set-up is calibrated the same way, by kernel runs every SETUP_PROBE_EVERY_S
during set-up and a few right after it.  The machine's speed also flips
within a fraction of a second, so 20 ms of kernel runs after set-up are too
few: twenty covers_many set-ups scaled by them spread 0.23 (quartile
distance over median, 0.05 unscaled), against 0.02 with the kernel running
through set-up.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Sequence

REFERENCE_S = 0.0015
PROBE_EVERY_S = 0.1
SETUP_PROBE_EVERY_S = 0.02  # set-up lasts 0.3 s on the covers workloads
WINDOW_S = 2.0


def kernel() -> int:
    """Fixed work in the mix raag runs: sparse elimination mod 7 on dict rows,
    then tuple building, sorting and hashing into a set."""
    n = 60
    rows = {r: {(r * 7 + k * 13) % n: (r + k) % 6 + 1 for k in range(4)} for r in range(n)}
    rank = 0
    for c in range(n):
        piv = next((r for r in rows if c in rows[r]), None)
        if piv is None:
            continue
        prow = rows.pop(piv)
        inv = pow(prow[c], 5, 7)
        for r in [r for r in rows if c in rows[r]]:
            row = rows[r]
            f = row[c] * inv % 7
            for k, v in prow.items():
                x = (row.get(k, 0) - f * v) % 7
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
        rank += 1
    seen = set()
    for i in range(1500):
        seen.add(tuple(sorted(((i * 31) % 97, (i * 17) % 89, i % 7))))
    return rank + len(seen)


class Probe:
    """Kernel timings of one process, taken on a timer while jobs run.

    start() arms a SIGALRM every PROBE_EVERY_S seconds whose handler runs the
    kernel once; the handler runs between bytecodes of whatever job is
    running, so the kernel sees the machine as that job does.  The worker
    takes the kernel time back off the job with spent_within().
    """

    def __init__(self) -> None:
        self.times: List[List[float]] = []  # [start, duration] per kernel run

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        self.times.append([t0, time.perf_counter() - t0])

    def run(self, count: int) -> None:
        for _ in range(count):
            self._tick()

    def start(self, every: float = PROBE_EVERY_S) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent_within(self, t0: float, t1: float) -> float:
        """Seconds of kernel runs that started in [t0, t1]."""
        total = 0.0
        for start, duration in reversed(self.times):
            if start < t0:
                break
            if start <= t1:
                total += duration
        return total


class Scale:
    """Factors from measured times to reference seconds, for one process."""

    def __init__(self, probe_times: Sequence[Sequence[float]]) -> None:
        self._starts = [t for t, _ in probe_times]
        self._durations = [d for _, d in probe_times]

    def __call__(self, start: float, duration: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of
        [start, start + duration]."""
        lo = bisect.bisect_left(self._starts, start - WINDOW_S)
        hi = bisect.bisect_right(self._starts, start + duration + WINDOW_S)
        return REFERENCE_S / statistics.median(self._durations[lo:hi] or self._durations)
