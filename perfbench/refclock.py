"""A clock that reads in seconds at a fixed machine speed.

The shared machine this benchmark runs on changes speed by up to 1.5x in
spells that last from seconds to minutes, the same for any pure-Python
work. A wall-clock time therefore says as much about the spell as about
the program. ``ReferenceClock`` measures the spell: while it runs, a timer
interrupts the process every ``PERIOD_S`` and times a fixed pure-Python
loop that never calls sdualkit. ``scaled(start, end)`` then converts a
wall-clock interval into the seconds it would have taken with the loop at
its nominal time ``spec.REFERENCE_LOOP_S``: each stretch of the interval
counts ``REFERENCE_LOOP_S / loop time`` seconds per wall second. The loop
time used for a stretch is the median of the nine samples around it, so a
single interrupted sample does not move it. ``sample()`` adds a sample
by hand, for the edges of an interval shorter than the period.

A program that gets faster gets faster on this clock too; only the
machine's own speed is divided out. Wall times are reported beside the
scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

import spec

PERIOD_S = 0.1

def reference_loop() -> float:
    """Wall seconds of one fixed pure-Python loop.

    It mixes integer arithmetic, small dict updates and short-lived tuples,
    as the workloads do. Its data fit in the first-level cache, so what the
    interrupted program left in the caches does not change its time, and
    the garbage collector is off while it runs, so the size of the
    program's heap does not change it either.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    acc = 0
    counts: dict = {}
    recent: list = []
    for i in range(3_500):
        acc += i * i % 7
        key = (i % 50, i % 7)
        counts[key] = counts.get(key, 0) + 1
        recent.append((i, acc))
        if len(recent) > 64:
            recent.clear()
    elapsed = perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


class ReferenceClock:
    def __init__(self):
        self.times: list[float] = []
        self.loops: list[float] = []
        self._smooth: list[float] | None = None

    def start(self) -> None:
        """Sample now and then every PERIOD_S until stop()."""
        self.sample()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        loop = reference_loop()
        self.times.append(perf_counter())
        self.loops.append(loop)
        self._smooth = None

    def _loop_at(self, k: int) -> float:
        if self._smooth is None:
            n = len(self.loops)
            self._smooth = [statistics.median(self.loops[max(0, i - 4):i + 5]) for i in range(n)]
        return self._smooth[k]

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the nominal machine speed of the wall interval [start, end].

        The time the reference loop itself ran inside the interval is left
        out, so an operation that a sample interrupted does not count it.
        """
        total = 0.0
        # stretch k runs from sample k to sample k + 1 and uses the loop time around them
        k = max(0, bisect.bisect_right(self.times, start) - 1)
        t = start
        while t < end:
            stop = min(end, self.times[k + 1]) if k + 1 < len(self.times) else end
            total += (stop - t) * spec.REFERENCE_LOOP_S / self._loop_at(k)
            t = stop
            k += 1
        # sample j's loop ran just before times[j], in stretch j - 1
        for j in range(bisect.bisect_left(self.times, start), len(self.times)):
            began = self.times[j] - self.loops[j]
            if began >= end:
                break
            inside = min(end, self.times[j]) - max(start, began)
            if inside > 0:
                total -= inside * spec.REFERENCE_LOOP_S / self._loop_at(max(j - 1, 0))
        return total

    def median_loop(self) -> float:
        return statistics.median(self.loops)
