"""Machine-speed adjustment of measured times.

The machines this benchmark runs on are shared, and the speed a process
gets drifts by tens of percent over seconds to minutes.  A fixed reference
loop is timed between batches of work, and each batch's times are scaled by
REFERENCE_NS / (median time of the NEAREST reference-loop samples), so they
read as on a core where the loop takes REFERENCE_NS, about its time on an
uncontended core of a 2.1 GHz Xeon.  One sample is noisy (a pause of a few
milliseconds doubles it); the median of the nearest samples follows the
drift without that noise.  The loop builds frozen dataclasses and calls math
functions, as the program does; of the loops tried it followed the drift of
``analyze`` best.  Work done in child processes (set-up probes, cold CLI
runs) slows differently, so it is scaled by a bare interpreter start,
``python -c pass``, instead.  ``run.py`` pins itself and its children to one
core so that the reference measures the core the work runs on.
"""

import math
import os
import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass

REFERENCE_ITERS = 1_000
REFERENCE_NS = 700_000
START_NS = 45_000_000  # python -c pass on an uncontended core of that Xeon
NEAREST = 15


@dataclass(frozen=True)
class _Pair:
    x: float
    y: float


def reference_loop_ns() -> int:
    t0 = time.perf_counter_ns()
    prev, acc = _Pair(0.0, 1.0), 0.0
    for i in range(REFERENCE_ITERS):
        cur = _Pair(i * 0.5, prev.y + 1.0)
        acc += math.hypot(cur.x - prev.x, cur.y - prev.y)
        prev = cur
    return time.perf_counter_ns() - t0


def interpreter_start_ns() -> int:
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter_ns() - t0


class SpeedLog:
    """Samples of one reference in time order: the in-process loop, or with
    ``processes=True`` a bare interpreter start."""

    def __init__(self, processes: bool = False):
        self.reference = interpreter_start_ns if processes else reference_loop_ns
        self.reference_ns = START_NS if processes else REFERENCE_NS
        self.at = array("q")
        self.ns = array("q")

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter_ns()
            self.ns.append(self.reference())
            self.at.append(t0)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Scale for times measured between start_ns and end_ns."""
        mid = (start_ns + end_ns) // 2
        lo = hi = bisect_left(self.at, mid)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.at)):
            if hi >= len(self.at) or (lo > 0 and mid - self.at[lo - 1] < self.at[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return self.reference_ns / statistics.median(self.ns[lo:hi])


def pin_to_one_core() -> None:
    """Run this process, and the children it starts, on one allowed core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
