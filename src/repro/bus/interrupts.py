"""Interrupt controller — the ISR backbone of the pipelined flow.

The Optical Flow Demonstrator's processing flow (Fig. 2) is entirely
interrupt driven: engine-done, reconfiguration-done and frame events
each raise an interrupt, and the PowerPC ISRs advance the pipeline.
This controller models a simple INTC: up to 32 level-sensitive request
inputs, an enable mask, a pending (status) register with write-one-to-
clear acknowledgement, and a single ``irq`` output to the processor.

Registers (DCR):

========  ======  ====================================================
offset    name    function
========  ======  ====================================================
0         ISR     pending sources (read); write 1s to acknowledge
1         IER     interrupt enable mask
2         IVR     lowest set pending+enabled source index (read only)
========  ======  ====================================================
"""

from __future__ import annotations

from typing import Dict, List

from ..kernel import Edge, Event, First, RisingEdge, Signal
from .dcr import DcrRegisterFile

__all__ = ["InterruptController"]


class InterruptController(DcrRegisterFile):
    """Level-sensitive interrupt controller with DCR register interface."""

    MAX_SOURCES = 32

    def __init__(self, name: str, base: int, clock, parent=None):
        super().__init__(name, base, size=4, parent=parent)
        self.clock = clock
        self.irq = self.signal("irq", 1, init=0)
        self._sources: List[Signal] = []
        self._source_names: Dict[str, int] = {}
        self._index_names: List[str] = []
        self._pending = 0
        self._enabled = 0
        self.interrupts_raised = 0
        #: per-source raise counts, ``source name -> count`` — lets a
        #: checker compare interrupt *composition*, not just the total
        self.raised_by_source: Dict[str, int] = {}
        #: X values observed on request inputs — evidence that garbage
        #: from a reconfiguring region escaped into the static logic
        self.x_violations = 0
        #: simulated time of the first violation (detection latency)
        self.first_x_violation_at = None
        #: simulated time of the last latched rising edge
        self._latched_at = None
        #: the last latch saw every source at a clean 0 and ``irq``
        #: already at its wanted value
        self._quiet = False
        #: ISR, IER or the source list changed since the last latch
        self._stale = False
        #: set on every such change: wakes a sleeping scan
        self._wake = Event(f"{name}.wake")
        self.add_register("ISR", 0, on_read=self._read_pending,
                          on_write=self._ack)
        self.add_register("IER", 1, on_write=self._set_enable)
        self.add_register("IVR", 2, on_read=self._vector)
        self._isr = self._names["ISR"]
        self.process(self._scan, "scan")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect_source(self, name: str, sig: Signal) -> int:
        """Attach a 1-bit request line; returns its source index."""
        if len(self._sources) >= self.MAX_SOURCES:
            raise ValueError("interrupt controller is full")
        if name in self._source_names:
            raise ValueError(f"interrupt source {name!r} already connected")
        index = len(self._sources)
        self._sources.append(sig)
        self._source_names[name] = index
        self._index_names.append(name)
        self.raised_by_source[name] = 0
        self._touch()
        return index

    def index_of(self, name: str) -> int:
        return self._source_names[name]

    # ------------------------------------------------------------------
    # Register behaviour
    # ------------------------------------------------------------------
    # A DCR access in the timestep of a bus-clock rising edge sees that
    # edge already latched, wherever the scan sits in the waiter list:
    # each callback first latches the edge if the scan has yet to.
    def _read_pending(self) -> int:
        self._catch_up()
        return self._pending

    def _ack(self, mask: int) -> None:
        self._catch_up()
        self._pending &= ~mask
        self.poke("ISR", self._pending)
        self._touch()

    def _set_enable(self, mask: int) -> None:
        self._catch_up()
        self._enabled = mask
        self._touch()

    def _vector(self) -> int:
        self._catch_up()
        active = self._pending & self._enabled
        if not active:
            return 0xFFFF_FFFF
        return (active & -active).bit_length() - 1

    def _touch(self) -> None:
        """Note a change the request lines do not show; wake the scan."""
        self._stale = True
        if self.sim is not None:
            self._wake.set(self.sim)

    def _catch_up(self) -> None:
        """Latch the current rising edge now if it has committed and the
        scan has not latched it yet."""
        sim = self.sim
        if sim is None:
            return
        now = sim.time
        if (
            self._latched_at != now
            and self.clock.rises_at(now)
            and self.clock.out.is_high
        ):
            self._latch()

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def _latch(self) -> None:
        """One scan: latch the request lines into pending, drive irq.

        Runs at most once per bus-clock rising edge, so the body is kept
        lean: ``pending`` in a local, a type test for X, and the ISR
        word written straight to its register slot (what :meth:`poke`
        does, minus the name lookup).
        """
        now = self.sim.time
        self._latched_at = now
        self._stale = False
        quiet = True
        pending = self._pending
        for i, sig in enumerate(self._sources):
            v = sig._value
            if v.__class__ is not int:  # carries X
                quiet = False
                self.x_violations += 1
                if self.first_x_violation_at is None:
                    self.first_x_violation_at = now
            elif v & 1:
                quiet = False
                if not pending & (1 << i):
                    self.interrupts_raised += 1
                    self.raised_by_source[self._index_names[i]] += 1
                    pending |= 1 << i
        self._pending = pending
        self._regs[self._isr] = pending
        want = 1 if pending & self._enabled else 0
        irq = self.irq
        if irq._value != want:
            irq.next = want
            quiet = False
        self._quiet = quiet

    def _scan(self):
        """Latch request lines into pending and drive irq on each
        bus-clock rising edge that can change them.

        The scan samples each rising edge once its delta has committed,
        so it sees every change made in that delta and none made after.
        It sleeps while every source is a clean 0, ``irq`` already holds
        its wanted value and no register write is outstanding.  It wakes
        on any source edge or on an ISR/IER write or new source
        (:meth:`_touch`).  A change committed in the rising edge's own
        delta is latched on that edge, any later one on the next, as the
        every-cycle scan did.  While a source is X the scan polls every
        cycle, so ``x_violations`` still counts cycles.
        """
        sim = self.sim
        clock = self.clock
        edge = RisingEdge(clock.out)
        while True:
            yield edge
            while True:
                if self._latched_at != sim.time:
                    self._latch()
                if not self._quiet or self._stale:
                    break
                yield First(
                    *[Edge(sig) for sig in self._sources], self._wake.wait()
                )
                # woken in delta 2 of a rising edge: the change was made
                # in the edge's own delta, so this edge latches it
                if not (sim.delta == 2 and clock.rises_at(sim.time)):
                    break

    @property
    def pending_mask(self) -> int:
        return self._pending
