"""Machine-speed calibration for timings taken on a shared machine.

On a small shared machine the same Python code runs up to a third
slower or faster from one minute to the next, depending on what other
tenants do; raw wall time cannot tell that from a change in the program.
A fixed pure-Python loop is timed a few times right before and right
after each operation, and by a background thread every PERIOD_S seconds
during it. An operation's reported time is its wall time times
REFERENCE_S / (median of those loop times): the wall time it would have
taken at the speed where the loop takes REFERENCE_S. The program's own
code never runs inside the loop, so a change to the program moves the
reported time as it moves wall time. The sampler holds the interpreter
lock for about 0.4 ms in every PERIOD_S, the same share in every run.
"""

import bisect
import math
import statistics
import threading
from time import perf_counter

# Loop time at the reference speed: about the median on a 2-core x86-64
# cloud VM at 2.1 GHz running Python 3.11.
REFERENCE_S = 0.0004
PERIOD_S = 0.05
_EDGE = 3  # loop timings right before and right after each operation


def loop_seconds() -> float:
    start = perf_counter()
    x, table = 0.0, {}
    for i in range(2000):
        table[i & 255] = x
        x += math.sqrt(i) * 1.000001
    return perf_counter() - start


class Clock:
    """Wall time of operations, also scaled to the reference speed."""

    def __init__(self):
        self._times = []  # sample start times, increasing
        self._loops = []  # loop seconds per sample
        self.factors = []  # REFERENCE_S / loop time, one per timed operation
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._done.wait(PERIOD_S):
            start = perf_counter()
            self._loops.append(loop_seconds())
            self._times.append(start)

    def close(self) -> None:
        self._done.set()
        self._thread.join()

    def start(self) -> tuple:
        edge = [loop_seconds() for _ in range(_EDGE)]
        return perf_counter(), edge

    def stop(self, started: tuple) -> tuple:
        """(reference-speed seconds, raw seconds) since start()."""
        end = perf_counter()
        raw = end - started[0]
        return raw * self.factor(started, end), raw

    def factor(self, started: tuple, end: float) -> float:
        """REFERENCE_S over the median loop time around and during an operation."""
        begin, loops = started[0], list(started[1])
        times = self._times[:]
        inside = self._loops[bisect.bisect_left(times, begin):bisect.bisect_right(times, end)]
        loops += inside + [loop_seconds() for _ in range(_EDGE)]
        factor = REFERENCE_S / statistics.median(loops)
        self.factors.append(factor)
        return factor
