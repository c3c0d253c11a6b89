"""Host-speed reference: a fixed pure-Python probe run beside the work.

The host's speed swings by up to about 1.8x within seconds and drifts
over minutes (see README.md, "Noise on this kind of host"), far more
than any bound the benchmark could hold, and each CPU swings on its
own.  So the generator pins itself, and with it the server it starts,
to one CPU (:func:`pin`), and runs a short fixed probe there at
moments when the server is idle -- between set-up steps, after each
closed-loop cycle, in quiet slots of the open-loop schedules.  Every
gated time is scaled by how long the probes next to it took::

    reported = measured * REFERENCE_S / median(nearest probes' seconds)

so a time reads as it would at the reference host speed.  The probe
never touches the program under test (this module imports nothing from
``repro``): a slower program still reads slower; a slower host does not.
The measured (unscaled) values are kept in ``records.jsonl`` beside
the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import time
from bisect import bisect_left, bisect_right

#: loop iterations of one probe (about 1 ms on the reference host)
PROBE_ITERATIONS = 1500
#: seconds one probe takes at the reference host speed (about the
#: fastest probes of a shared two-core 2 GHz Xeon container)
REFERENCE_S = 0.00085
#: probes a scale rests on: those inside the scaled interval, widened
#: to the nearest ones in time (the host's speed moves within a second,
#: so only close probes track it)
MIN_PROBES = 5
#: probes in a row at each set-up step (one probe is noisy; the scale
#: of a set-up or a register rests on those just around it)
SETUP_PROBES = 3


def pin() -> None:
    """Pin the calling thread, and every thread and process it starts
    later, to the lowest CPU this process may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _work() -> float:
    """Fixed interpreter-bound work: dict updates, float arithmetic,
    tuple building and sorting, the engine's staple operations."""
    table: dict = {}
    heap: list = []
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + 1
        x = key * 0.5 - i * 0.25
        acc += x * x if x > 0 else -x
        heap.append((acc % 97.0, key))
        if len(heap) > 64:
            heap.sort()
            del heap[:32]
    return acc


class SpeedLog:
    """Probes taken during one run, by time.  One thread takes them."""

    def __init__(self) -> None:
        #: probe mid-times (``perf_counter``), ascending
        self.times: list[float] = []
        #: seconds each probe took
        self.seconds: list[float] = []

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            _work()
            end = time.perf_counter()
            self.times.append((start + end) / 2)
            self.seconds.append(end - start)

    def scale(self, t0: float, t1: float | None = None) -> float:
        """``REFERENCE_S`` over the median of the probes inside
        ``[t0, t1]`` and, up to ``MIN_PROBES``, the nearest ones
        outside it: the factor that turns a time measured then into one
        at the reference host speed."""
        t1 = t0 if t1 is None else t1
        times = self.times
        lo, hi = bisect_left(times, t0), bisect_right(times, t1)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0
                                    and t0 - times[lo - 1] <= times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        if hi - lo < MIN_PROBES:
            raise ValueError("too few host-speed probes in the run")
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def speed(self) -> float:
        """The run's median host speed relative to the reference."""
        return REFERENCE_S / statistics.median(self.seconds)
