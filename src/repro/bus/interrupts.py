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

from ..kernel import Edge, RisingEdge, Signal
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
        self.add_register("ISR", 0, on_read=lambda: self._pending,
                          on_write=self._ack)
        self.add_register("IER", 1, on_write=self._set_enable)
        self.add_register("IVR", 2, on_read=self._vector)
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
        return index

    def index_of(self, name: str) -> int:
        return self._source_names[name]

    # ------------------------------------------------------------------
    # Register behaviour
    # ------------------------------------------------------------------
    def _ack(self, mask: int) -> None:
        self._pending &= ~mask
        self.poke("ISR", self._pending)

    def _set_enable(self, mask: int) -> None:
        self._enabled = mask

    def _vector(self) -> int:
        active = self._pending & self._enabled
        if not active:
            return 0xFFFF_FFFF
        return (active & -active).bit_length() - 1

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def _scan(self):
        """Latch request lines into pending and drive irq each cycle.

        Runs on every bus-clock rising edge, so the body is kept lean:
        one reusable edge trigger, ``pending`` in a local, raw X/Z mask
        tests, and the ISR word written straight to its register slot
        (what :meth:`poke` does, minus the name lookup).
        """
        edge = RisingEdge(self.clock.out)
        sources = self._sources
        names = self._index_names
        raised_by_source = self.raised_by_source
        regs = self._regs
        isr = self._names["ISR"]
        irq = self.irq
        while True:
            yield edge
            pending = self._pending
            for i, sig in enumerate(sources):
                v = sig._value
                if v.xmask | v.zmask:
                    self.x_violations += 1
                    if self.first_x_violation_at is None:
                        self.first_x_violation_at = self.sim.time
                elif v.value & 1:
                    if not pending & (1 << i):
                        self.interrupts_raised += 1
                        raised_by_source[names[i]] += 1
                        pending |= 1 << i
            self._pending = pending
            regs[isr] = pending
            want = 1 if pending & self._enabled else 0
            v = irq._value
            if v.xmask | v.zmask or v.value != want:
                irq.next = want

    @property
    def pending_mask(self) -> int:
        return self._pending
