"""Host-speed gauge: CPU-bound timings expressed at a fixed reference speed.

On a shared host the same pure-Python work runs up to twice as slow for
seconds or minutes at a time, while other tenants load the machine, in
thread CPU time as well as in wall time. A gauge thread therefore runs a
fixed slice of pure-Python work (an edit-distance table of two fixed
strings, close to what the locator does) every `PERIOD_S` and records how
long each slice took. A timed interval is then scaled by
REFERENCE_S / slice time, averaged over the slices taken during it and
within NEAR_S of it, so it reads what it would on a host where one slice
takes REFERENCE_S; the time the slices themselves held the interpreter is
taken out first. The slice
involves no selfverify code, so a change to the program moves scaled times
as much as raw ones. REFERENCE_S is the slice time in the fast spells of a
2-vCPU sandbox with Python 3.11.7, so scaled times read close to raw times
measured there in a quiet moment.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import threading
import time

REFERENCE_S = 0.35e-3
PERIOD_S = 0.05
# Slices this close to an interval also count for it, so short intervals
# (a 2 ms doc-run) get a speed from the slices around them.
NEAR_S = 0.25
# A slice this many times longer than the median slice near it lost the
# interpreter lock or the CPU midway and says nothing about speed.
INTERRUPTED = 4

_A = "the patient reported mild fatigue during morning rounds"
_B = "the patent reportd mild"


def gauge_slice() -> int:
    prev = list(range(len(_A) + 1))
    for cb in _B:
        cur = [0]
        for i, ca in enumerate(_A):
            cur.append(min(prev[i + 1] + 1, cur[i] + 1, prev[i] + (ca != cb)))
        prev = cur
    return prev[-1]


class Gauge:
    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (start, seconds), in start order
        self._stop = threading.Event()

    @contextlib.contextmanager
    def running(self):
        """Take a slice every PERIOD_S on a thread of its own while the block runs.

        Slices are also taken for two periods before the block and after
        it, so every interval in it has slices on both sides.
        """
        self._stop.clear()
        thread = threading.Thread(target=self._run, name="gauge", daemon=True)
        thread.start()
        try:
            time.sleep(2 * PERIOD_S)
            yield self
            time.sleep(2 * PERIOD_S)
        finally:
            self._stop.set()
            thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            gauge_slice()
            self.slices.append((start, time.perf_counter() - start))

    def _between(self, lo: float, hi: float) -> list[tuple[float, float]]:
        return self.slices[bisect.bisect_left(self.slices, (lo,)):
                           bisect.bisect_right(self.slices, (hi,))]

    def speed(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / slice time over the slices near [start, end]."""
        # `running` pads every block with slices, so the fallback to all
        # slices only serves an interval the gauge thread was kept from.
        near = [s for _, s in self._between(start - NEAR_S, end + NEAR_S) or self.slices]
        if not near:
            raise RuntimeError("the gauge took no slice")
        cap = INTERRUPTED * statistics.median(near)
        return statistics.fmean(REFERENCE_S / s for s in near if s <= cap)

    def busy(self, start: float, end: float) -> float:
        """Seconds of [start, end] that the slices took."""
        return sum(max(0.0, min(end, s0 + s) - max(start, s0))
                   for s0, s in self._between(start - NEAR_S, end))

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end], less the slices in it, at the reference speed."""
        return (end - start - self.busy(start, end)) * self.speed(start, end)
