"""The Extended Portal — ReSim's configuration-memory stand-in.

The Extended Portal mimics the part of the FPGA's configuration memory
that a reconfigurable region maps to.  It receives decoded SimB events
from the ICAP artifact and turns them into the physical effects a real
bitstream write has on the region:

* **FAR write** — records which module will become active next,
* **first payload word** — the region's contents start changing: the
  portal deselects the current module and starts error injection,
* **last payload word** — configuration is complete: injection ends and
  the new module is swapped in (*dirty* — it still needs a user reset),
* **DESYNC** — closes the "DURING reconfiguration" phase.

Because module swapping happens only after *every* payload word has
arrived, the simulated reconfiguration delay equals the real bitstream
transfer time — the property that exposed the paper's ``bug.dpr.6b``.

The portal also keeps a timeline of phase transitions so testbenches
can assert on behaviour *before*, *during* and *after* reconfiguration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..kernel import Event, Module

__all__ = ["ExtendedPortal", "PortalRecord"]


@dataclass(frozen=True)
class PortalRecord:
    """One phase-transition event in the portal's timeline."""

    time: int
    kind: str  # "far" | "inject_start" | "swap" | "error" | "desync"
    module_id: Optional[int] = None


class ExtendedPortal(Module):
    """Per-region reconfiguration orchestrator (simulation-only)."""

    def __init__(self, name: str, slot, injector, swap_early: bool = False, parent=None):
        super().__init__(name, parent)
        self.slot = slot
        self.injector = injector
        #: ablation knob — swap as soon as configuration *begins* (the
        #: zero-delay behaviour of older simulation approaches) instead
        #: of when the last payload word lands.  Masks timing bugs like
        #: bug.dpr.6b; kept only for the ablation benchmarks.
        self.swap_early = swap_early
        self.rr_id = slot.rr_id
        self.pending_module: Optional[int] = None
        self.timeline: List[PortalRecord] = []
        self.reconfigurations = 0
        #: fires after each completed module swap (data = module id)
        self.swap_done = Event(f"{name}.swap_done")
        self.unknown_module_errors = 0
        self.aborted_loads = 0
        self.capture_errors = 0
        self.restores = 0
        self.restore_failures = 0
        #: open "reconfig"/"during-reconfig" trace span (inject → swap)
        self._during_span = None

    def _now(self) -> int:
        return self.sim.time if self.sim is not None else 0

    def _log(self, kind: str, module_id: Optional[int] = None) -> None:
        """Record a phase transition — timeline entry plus trace event.

        The portal timeline is the substrate's source of truth for the
        reconfiguration lifecycle: every record becomes a ``reconfig``
        instant, and the DURING phase (first payload word → swap, the
        window the paper's Fig. 5 timeline measures) becomes a span.
        """
        self.timeline.append(PortalRecord(self._now(), kind, module_id))
        tr = self.tracer
        if tr is None:
            return
        tr.instant(
            "reconfig", f"portal:{kind}", rr=self.rr_id, module=module_id
        )
        if kind == "inject_start":
            if self._during_span is not None:
                self._during_span.end()
            self._during_span = tr.begin(
                "reconfig", "during-reconfig", rr=self.rr_id, module=module_id
            )
        elif kind in ("swap", "error", "desync") and self._during_span is not None:
            self._during_span.add_args(outcome=kind)
            self._during_span.end()
            self._during_span = None

    # ------------------------------------------------------------------
    # Callbacks from the ICAP artifact
    # ------------------------------------------------------------------
    def on_far(self, module_id: int) -> None:
        self.pending_module = module_id
        self._log("far", module_id)

    def on_payload_start(self) -> None:
        if self.swap_early and self.pending_module is not None:
            # ablation: instantaneous swap at the start of configuration
            self._log("inject_start", self.pending_module)
            self._swap()
            return
        self.slot.deselect()
        self.injector.inject()
        self._log("inject_start", self.pending_module)

    def on_payload_end(self) -> None:
        if self.swap_early:
            return  # already swapped at payload start
        self.injector.release()
        self._swap()

    def _swap(self) -> None:
        if self.pending_module is None:
            self.unknown_module_errors += 1
            self._log("swap", None)
            return
        try:
            self.slot.select(self.pending_module)
        except KeyError:
            self.unknown_module_errors += 1
            self._log("swap", None)
            return
        self.reconfigurations += 1
        self._log("swap", self.pending_module)
        if self.sim is not None:
            self.swap_done.set(self.sim, self.pending_module)

    def on_error(self) -> None:
        """An aborted load (framing/CRC error or controller abort)."""
        self.aborted_loads += 1
        self._log("error", self.pending_module)

    def on_desync(self) -> None:
        self._log("desync", self.pending_module)
        self.pending_module = None

    # -- state saving / restoration (GCAPTURE / GRESTORE) ----------------
    def on_gcapture(self):
        """Capture the active module's state; returns the word vector."""
        if self.slot.active is None:
            self.capture_errors += 1
            self._log("capture", None)
            return []
        words = self.slot.active.capture_state()
        self._log("capture", self.slot.active.ENGINE_ID)
        return words

    def on_grestore(self, payload) -> bool:
        """Restore the (just-swapped-in) module's state from the payload."""
        engine = self.slot.active
        if engine is None:
            self.restore_failures += 1
            self._log("restore", None)
            return False
        ok = engine.restore_state(payload)
        if ok:
            self.restores += 1
        else:
            self.restore_failures += 1
        self._log("restore", engine.ENGINE_ID)
        return ok

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def last_swap_duration(self) -> Optional[int]:
        """Picoseconds between injection start and the completing swap."""
        start = end = None
        for rec in reversed(self.timeline):
            if rec.kind == "swap" and end is None:
                end = rec.time
            elif rec.kind == "inject_start" and end is not None:
                start = rec.time
                break
        if start is None or end is None:
            return None
        return end - start
