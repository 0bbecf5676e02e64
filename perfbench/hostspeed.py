"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed for this kind of code
moves by up to 2x within a minute (other tenants contend for the core
and its caches).  Raw wall times then spread far more than any
regression worth catching, so every timing the benchmark reports is
scaled to a fixed reference speed::

    reported = measured * NOMINAL_S / probe

where ``probe`` is the time of a fixed pure-Python loop — a random walk
over a chain of small objects, the same kind of attribute-chasing,
cache-missing work the simulator does — timed right before and right
after the measured call (for the campaign, inside the fleet worker
around each of its runs).  The loop touches no ``repro`` code, so a
faster simulator still reads faster; only the host's speed is divided
out.  ``NOMINAL_S`` is the loop's typical time on an unloaded reference
host (2-vCPU x86-64 container, CPython 3.11), so reported seconds read
as seconds on that host.  Raw times are printed beside them.
"""

from __future__ import annotations

import os
import random
from time import perf_counter
from typing import List

#: objects in the chain: about 12 MB, larger than a core's caches
CHAIN_CELLS = 250_000
#: steps of one timed walk
WALK_STEPS = 200_000
#: walks averaged per probe
WALKS = 2
#: one walk's time on the reference host
NOMINAL_S = 0.040


class _Cell:
    __slots__ = ("nxt", "val")


class HostSpeed:
    """A probe of the host's current speed; build once, probe often."""

    def __init__(self, seed: int = 0) -> None:
        cells = [_Cell() for _ in range(CHAIN_CELLS)]
        random.Random(seed).shuffle(cells)
        for i, cell in enumerate(cells):
            cell.nxt = cells[i - 1]
            cell.val = i & 0xFF  # small ints are shared: no allocation per step
        #: where the next walk starts: walks continue round the chain, so
        #: a short walk touches cold cells just as a long one does
        self._cursor = cells[0]
        self._pid = os.getpid()
        #: every probe taken, in seconds per walk
        self.probes: List[float] = []

    def _walk(self, steps: int) -> float:
        cell, acc = self._cursor, 0
        t0 = perf_counter()
        for _ in range(steps):
            acc += cell.val
            cell = cell.nxt
        elapsed = perf_counter() - t0
        self._cursor = cell
        return elapsed

    def probe(self, walks: int = WALKS, steps: int = WALK_STEPS) -> float:
        """Seconds per ``WALK_STEPS``-step walk right now.

        Measured as the mean of ``walks`` walks of ``steps`` steps.
        """
        if self._pid != os.getpid():
            # a forked child first copies the chain's pages on write;
            # walk it once untimed so no probe pays for that
            self._walk(CHAIN_CELLS)
            self._pid = os.getpid()
        total = sum(self._walk(steps) for _ in range(walks))
        seconds = total / walks * WALK_STEPS / steps
        self.probes.append(seconds)
        return seconds


def normalise(measured_s: float, before_s: float, after_s: float) -> float:
    """Scale a time measured between two probes to the reference host."""
    return measured_s * NOMINAL_S * 2.0 / (before_s + after_s)
