"""A fixed piece of interpreter work, timed between repetitions.

The machine this benchmark runs on is shared, and its speed drifts by
up to 30% over seconds to minutes: a fixed loop takes 12 ms in one
minute and 23 ms in the next, in CPU time as in wall time.  Every
operation of the program under test slows down with it.  The yardstick
is timed every ``INTERVAL_S`` during a run.  Each timed region of the
run (a pass, a commit, a set-up build) is then scaled by
``REFERENCE_S`` over the typical reading taken around that region,
which expresses it at one fixed machine speed.  None of the program's
code runs in the yardstick, so a change to the program cannot move it.

The work mixes what the program does: integer arithmetic, dict
lookups in a table a few MB large, small-object allocation and a sort.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from typing import List

#: Yardstick time the scaled metrics are expressed at.  Typical readings
#: on a shared 2-vCPU x86-64 virtual machine (Xeon, Python 3.11) ranged
#: from 0.9 to 1.5 ms, so scaled figures read up to a third below
#: wall-clock figures there.
REFERENCE_S = 0.001
#: A run takes a reading between repetitions when this long has passed
#: since the last one.
INTERVAL_S = 0.1
#: A region is scaled by the readings taken within this many seconds of
#: it: the machine's speed changes from one second to the next, so the
#: readings next to a region follow its speed better than the whole
#: run's do (perfbench/NOTES.md compares window lengths).
WINDOW_S = 0.5
#: ... and by at least this many readings, the nearest ones.
MIN_READINGS = 10
TABLE_SIZE = 20_000
LOOKUPS = 2_000


class _Record:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str) -> None:
        self.key, self.name = key, name


def _key(record: _Record) -> int:
    return record.key


class Yardstick:
    """Times the fixed work; keeps every reading in ``readings``."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {i: (i * 7919 % TABLE_SIZE, str(i)) for i in range(TABLE_SIZE)}
        self._keys = [rng.randrange(TABLE_SIZE) for _ in range(LOOKUPS)]
        self.readings: List[float] = []
        #: ``perf_counter`` when each reading ended, in order.
        self.times: List[float] = []
        self._last = float("-inf")

    def _work(self) -> float:
        start = time.perf_counter()
        records = []
        total = 0
        for k in self._keys:
            key, name = self._table[k]
            total += key * key % 7
            records.append(_Record(key, name))
        records.sort(key=_key)
        return time.perf_counter() - start

    def read(self, times: int = 1) -> None:
        """Time the work ``times`` times, keeping each reading.

        Each reading runs the work twice and keeps the second time, with
        the collector off: the first run brings the table back into the
        CPU caches and a collection would scan the program's heap, so
        neither the program's memory footprint nor its garbage reaches
        the reading.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                self._work()
                self.readings.append(self._work())
                self.times.append(time.perf_counter())
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()

    def maybe_read(self) -> None:
        """Take a reading if ``INTERVAL_S`` has passed since the last."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.read()

    def typical(self) -> float:
        """The trimmed mean of every reading of the run."""
        return _trimmed_mean(self.readings)

    def scale_between(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the typical reading around ``[start, end]``.

        The readings are those taken within ``WINDOW_S`` of the region,
        widened to the ``MIN_READINGS`` nearest when fewer are there.
        """
        times = self.times
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        while hi - lo < MIN_READINGS and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0 and start - times[lo - 1] <= times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / _trimmed_mean(self.readings[lo:hi])


def _trimmed_mean(readings: List[float]) -> float:
    """The mean reading, leaving out the highest and lowest tenth.

    A region's wall time adds up the slow and the fast moments of the
    machine, so a mean tracks them better than a median does; the trim
    drops readings that a preemption cut into.
    """
    ordered = sorted(readings)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])
