"""Clock generation.

The AutoVision case study is explicitly sensitive to clocking: the
"engine reset" bug (bug.dpr.6b in Table III) was introduced when the
re-integrated design moved to a *slower configuration clock*, which
stretched bitstream transfer past the software's reset timing.  Clock
domains are therefore first-class here: each :class:`Clock` has its own
period, and modules keep an explicit reference to the clock they run on.

A free-running clock is the kernel's single hottest producer of events,
so it does not run as a generator process at all.  It owns two reusable
edge objects, and exactly one of them is pending in the simulator's
timed queue: firing an edge posts the other one, half a period later,
so the heap stays as small as the design's pending events.  Compared
with a ``while True: yield Timer(...)`` process this removes the
per-half-period generator resume, Timer allocation and trigger priming
entirely; a clock edge therefore counts as a signal value change (not a
process resume) in the activity accounting.
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional

from .logic import bit
from .module import Module
from .signal import Signal

__all__ = ["Clock", "MHz"]


def MHz(freq: float) -> int:
    """Clock period in picoseconds for a frequency in MHz."""
    return round(1_000_000 / freq)


class _ClockEdge:
    """A clock transition, fired straight from the timed queue.

    Stateless across firings: a clock's two instances alternate in the
    queue, each re-posting the other (``next``) ``delay`` picoseconds
    after it fires, so steady-state clocking allocates nothing but the
    heap entries themselves.
    """

    __slots__ = ("clock", "value", "bump", "delay", "next")

    def __init__(self, clock: "Clock", value, bump: int, delay: int):
        self.clock = clock
        self.value = value  # interned 1-bit LogicVector
        self.bump = bump  # 1 on the edge completing a full cycle
        self.delay = delay  # time from this edge to the clock's next one
        self.next = None  # the clock's other edge; set by Clock

    def _fire(self, sim) -> None:
        """Commit this (already popped) edge and post the clock's next one."""
        clock = self.clock
        sim._updates[clock.out] = self.value
        clock.cycles += self.bump
        sim._seq += 1
        heappush(sim._timed, (sim.time + self.delay, sim._seq, self.next))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_ClockEdge({self.clock.path}->{self.value!r})"


class Clock(Module):
    """A free-running clock driving a 1-bit signal.

    Parameters
    ----------
    period:
        Full period in picoseconds (use :func:`MHz` for convenience).
    start_high:
        Phase of the first half-period.
    """

    def __init__(
        self,
        name: str,
        period: int,
        parent: Optional[Module] = None,
        start_high: bool = False,
    ):
        super().__init__(name, parent)
        if period < 2:
            raise ValueError(f"clock period must be >= 2ps, got {period}")
        self.period = int(period)
        self.half = self.period // 2
        self.other_half = self.period - self.half
        self.out: Signal = self.signal("clk", 1, init=1 if start_high else 0)
        self.cycles = 0
        self._start_high = start_high
        # Edge A ends the first half-period (leaves the start phase);
        # edge B returns to the start phase and completes the cycle.
        # Each edge's ``delay`` is the half-period that follows it.
        if start_high:
            self._first_delay = self.half
            self._edge_a = _ClockEdge(self, bit(0), 0, self.other_half)
            self._edge_b = _ClockEdge(self, bit(1), 1, self.half)
        else:
            self._first_delay = self.other_half
            self._edge_a = _ClockEdge(self, bit(1), 0, self.half)
            self._edge_b = _ClockEdge(self, bit(0), 1, self.other_half)
        self._edge_a.next = self._edge_b
        self._edge_b.next = self._edge_a
        self._first_rise = None  # absolute time of the first rising edge

    def _elaborate(self, sim) -> None:
        already = self.sim is sim
        super()._elaborate(sim)
        if not already:
            first = sim.time + self._first_delay
            self._first_rise = (
                sim.time + self.period if self._start_high else first
            )
            sim._seq += 1
            heappush(sim._timed, (first, sim._seq, self._edge_a))

    def rises_at(self, t: int) -> bool:
        """True if this clock has a rising edge at time ``t`` (ps)."""
        first = self._first_rise
        return first is not None and t >= first and not (t - first) % self.period
