"""Clock generation.

The AutoVision case study is explicitly sensitive to clocking: the
"engine reset" bug (bug.dpr.6b in Table III) was introduced when the
re-integrated design moved to a *slower configuration clock*, which
stretched bitstream transfer past the software's reset timing.  Clock
domains are therefore first-class here: each :class:`Clock` has its own
period, and modules keep an explicit reference to the clock they run on.

A free-running clock is the kernel's single hottest producer of events,
so it does not run as a generator process at all: it posts its
transitions straight into the simulator's timed queue, a batch of
:attr:`Clock.BATCH` cycles at a time, using two reusable edge objects.
Compared with a ``while True: yield Timer(...)`` process this removes
the per-half-period generator resume, Timer allocation and trigger
priming entirely; a clock edge therefore counts as a signal value
change (not a process resume) in the activity accounting.
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
    """A pre-scheduled clock transition, fired straight from the timed queue.

    Stateless across firings: the same two instances per clock are
    pushed for every scheduled edge, so steady-state clocking allocates
    nothing but the heap entries themselves.
    """

    __slots__ = ("clock", "value", "bump")

    def __init__(self, clock: "Clock", value, bump: int):
        self.clock = clock
        self.value = value  # interned 1-bit LogicVector
        self.bump = bump  # 1 on the edge completing a full cycle

    def _fire(self, sim) -> None:
        clock = self.clock
        sim._updates[clock.out] = self.value
        clock.cycles += self.bump
        clock._outstanding -= 1
        if not clock._outstanding:
            clock._post_batch(sim)

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

    #: cycles posted to the timed queue per batch (2 edges per cycle)
    BATCH = 64

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
        if start_high:
            self._first_delay, self._second_delay = self.half, self.other_half
            self._edge_a = _ClockEdge(self, bit(0), 0)
            self._edge_b = _ClockEdge(self, bit(1), 1)
        else:
            self._first_delay, self._second_delay = self.other_half, self.half
            self._edge_a = _ClockEdge(self, bit(1), 0)
            self._edge_b = _ClockEdge(self, bit(0), 1)
        self._outstanding = 0
        self._t = 0  # absolute time of the last posted edge
        self._first_rise = None  # absolute time of the first rising edge

    def _elaborate(self, sim) -> None:
        already = self.sim is sim
        super()._elaborate(sim)
        if not already:
            self._t = sim.time
            self._first_rise = sim.time + (
                self.period if self._start_high else self._first_delay
            )
            self._post_batch(sim)

    def _post_batch(self, sim) -> None:
        """Post the next :attr:`BATCH` cycles of edges to the timed queue."""
        t = self._t
        d1, d2 = self._first_delay, self._second_delay
        ea, eb = self._edge_a, self._edge_b
        timed = sim._timed
        seq = sim._seq
        for _ in range(self.BATCH):
            t += d1
            seq += 1
            heappush(timed, (t, seq, ea))
            t += d2
            seq += 1
            heappush(timed, (t, seq, eb))
        sim._seq = seq
        self._t = t
        self._outstanding = 2 * self.BATCH

    def rises_at(self, t: int) -> bool:
        """True if this clock has a rising edge at time ``t`` (ps)."""
        first = self._first_rise
        return first is not None and t >= first and not (t - first) % self.period

    @property
    def frequency_mhz(self) -> float:
        return 1_000_000 / self.period

    def cycles_to_time(self, cycles: int) -> int:
        """Simulated picoseconds covered by ``cycles`` clock cycles."""
        return cycles * self.period
