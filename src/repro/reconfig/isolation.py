"""The Isolation module — gating the RR boundary during reconfiguration.

Part of the *user design* (it is implemented on the FPGA, unlike the
ReSim artifacts): a bank of AND/mux gates between the reconfigurable
region's outputs and the static region.  When enabled by software
before a reconfiguration, it drives safe constants so the garbage the
region emits mid-configuration cannot reach the interrupt controller or
the DCR logic; when disabled it is transparent.

Whether the isolation logic (and the driver code that arms it) actually
works can only be verified by a simulation that *produces* the garbage
— which Virtual Multiplexing never does.  Under ReSim the error
injector drives X on the slot outputs, and any X observed on this
module's *static-side* outputs is a verification failure recorded in
:attr:`x_leaks`.
"""

from __future__ import annotations

from ..kernel import Edge, Event, First, LogicVector, Module

__all__ = ["Isolation"]


class Isolation(Module):
    """Output gating between an RR slot and the static region."""

    def __init__(self, name: str, slot, parent=None):
        super().__init__(name, parent)
        self.slot = slot
        self.enabled = False
        # static-side (gated) outputs
        self.out_done = self.signal("iso_done", 1, init=0)
        self.out_busy = self.signal("iso_busy", 1, init=0)
        self.out_error = self.signal("iso_error", 1, init=0)
        self.out_io = self.signal("iso_io", 8, init=0)
        self._update = Event(f"{name}.update")
        #: count of X values that escaped to the static side
        self.x_leaks = 0
        #: simulated time of the first leak (detection-latency metric)
        self.first_x_leak_at = None
        self.process(self._gate, "gate")

    def set_enabled(self, enabled: bool) -> None:
        """Arm/disarm isolation (wired to a DCR control register bit)."""
        self.enabled = bool(enabled)
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "reconfig",
                "isolation-armed" if self.enabled else "isolation-released",
            )
        if self.sim is not None:
            self._update.set(self.sim)

    def _gate(self):
        slot = self.slot
        # Per-source previous values: a leak is counted once per value
        # *change* carrying X, not once per process wake-up (an edge on
        # any sibling signal re-evaluates all four paths).
        prev = {}
        while True:
            if self.enabled:
                self.out_done.next = 0
                self.out_busy.next = 0
                self.out_error.next = 0
                self.out_io.next = 0
                # X re-exposed by a later disarm is a fresh leak
                prev.clear()
            else:
                for src, dst in (
                    (slot.out_done, self.out_done),
                    (slot.out_busy, self.out_busy),
                    (slot.out_error, self.out_error),
                    (slot.out_io, self.out_io),
                ):
                    value = src.value
                    if (
                        isinstance(value, LogicVector)
                        and value != prev.get(src)
                    ):
                        self.x_leaks += 1
                        if self.first_x_leak_at is None and self.sim is not None:
                            self.first_x_leak_at = self.sim.time
                    prev[src] = value
                    dst.next = value
            yield First(
                self._update.wait(),
                Edge(slot.out_done),
                Edge(slot.out_busy),
                Edge(slot.out_error),
                Edge(slot.out_io),
            )
