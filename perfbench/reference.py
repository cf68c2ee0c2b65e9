"""A fixed pure-Python loop that gauges how fast the machine runs right now.

On a shared machine the speed a process gets changes by up to 2x within
seconds and drifts over minutes, which moves every timing with it.  The
harness times a short chunk of this loop every quarter second while it
measures, and scales each measured time by REFERENCE_SECONDS over the
chunk's median time during that interval.  The loop does the kind of work
the program does (frozen dataclasses as dict keys, tuple building, small
Fraction arithmetic) and imports nothing from it, so a change to the
program cannot change the loop.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# One chunk's time on the machine the benchmark was built on (2-vCPU Xeon
# VM, Python 3.11.7) at that machine's fast speed.  Scaled times read as
# seconds on that machine at that speed.
REFERENCE_SECONDS = 0.004
INTERVAL = 0.25  # seconds between chunks while a gauge runs


@dataclass(frozen=True)
class _Node:
    key: tuple


def _chunk() -> int:
    seen: dict[_Node, int] = {}
    frontier = [_Node((0,))]
    steps = 0
    while steps < 2400:
        nxt = []
        for node in frontier:
            for i in range(3):
                key = node.key + (i,) if len(node.key) < 6 else node.key[1:] + (i,)
                child = _Node(key)
                if child not in seen:
                    seen[child] = len(seen)
                    nxt.append(child)
                steps += 1
        frontier = nxt or [_Node((steps,))]
    acc = Fraction(0)
    for k in range(1, 200):
        acc += Fraction(k % 7, 1 + k % 5) * Fraction(1 + k % 3, 1 + k % 4)
    return len(seen) + acc.numerator % 7


class SpeedGauge:
    """Times the reference chunk every INTERVAL seconds from a SIGALRM handler.

    The handler runs in the measuring thread between bytecodes of whatever
    is being measured; `spent` is the time it took, which callers subtract
    from their own timings.  Use as a context manager around measurements.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self) -> None:
        # With the collector off, the chunk never scans the program's heap,
        # so a larger heap cannot slow it down.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _chunk()
            duration = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.durations.append(duration)
        self.spent += duration

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedGauge":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor from times taken in [start, end] to reference-speed times.

        Uses the median time of the chunks run inside the interval and the
        nearest one on either side of it, so one chunk slowed by a passing
        stall does not move the factor.
        """
        lo = max(0, bisect.bisect_left(self.starts, start) - 1)
        hi = bisect.bisect_right(self.starts, end) + 1
        return REFERENCE_SECONDS / statistics.median(self.durations[lo:hi])
