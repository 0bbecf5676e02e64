"""The reconfigurable-region socket and its output multiplexer.

Both simulation approaches instantiate every engine of the region in
parallel and select one at a time through a multiplexer (Figs. 3/4):
Virtual Multiplexing drives the selection from the ``engine_signature``
register, ReSim drives it from the Extended Portal when a SimB finishes.
:class:`RRSlot` is that shared socket:

* it owns the RR's single bus interface and hands it to every engine,
* it forwards start/reset pulses from the external register file to the
  *currently configured* engine only — pulses sent while the region is
  unconfigured vanish, exactly like on the real fabric (the
  ``bug.dpr.6b`` mechanism),
* its multiplexer process re-drives the RR boundary outputs whenever an
  engine IO toggles or the selection changes.  The process is owned by
  this module, so kernel profiling attributes its cost separately —
  reproducing the paper's "1.4% of simulation time in the
  Engine_wrapper multiplexer" measurement.

During reconfiguration an :class:`~repro.reconfig.injector.ErrorInjector`
installs an *injection override*: the mux then drives the injector's
error values (X by default) instead of any engine's outputs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..engines.base import VideoEngine
from ..kernel import Edge, Event, First, Module, xbits

__all__ = ["RRSlot"]


class RRSlot(Module):
    """Socket for one reconfigurable region holding N engine modules."""

    def __init__(
        self,
        name: str,
        rr_id: int,
        port,
        regs,
        engines: List[VideoEngine],
        parent=None,
    ):
        super().__init__(name, parent)
        self.rr_id = rr_id
        self.port = port
        self.regs = regs
        self.engines: Dict[int, VideoEngine] = {}
        for engine in engines:
            if engine.ENGINE_ID in self.engines:
                raise ValueError(
                    f"duplicate engine id {engine.ENGINE_ID:#x} in slot"
                )
            self.engines[engine.ENGINE_ID] = engine
            engine.install(port, regs)
        regs.on_start(self._on_start)
        regs.on_reset(self._on_reset)
        # RR boundary outputs as seen by the static region (pre-isolation)
        self.out_done = self.signal("rr_done", 1, init=0)
        self.out_busy = self.signal("rr_busy", 1, init=0)
        self.out_error = self.signal("rr_error", 1, init=0)
        self.out_io = self.signal("rr_io", 8, init=0)
        self.active: Optional[VideoEngine] = None
        self._injection_fn: Optional[Callable[[], Dict[str, object]]] = None
        self._update = Event(f"{name}.update")
        self.lost_start_pulses = 0
        self.lost_reset_pulses = 0
        self.process(self._mux, "mux")

    # ------------------------------------------------------------------
    # Selection (driven by the portal or the signature register)
    # ------------------------------------------------------------------
    def select(self, module_id: int) -> VideoEngine:
        """Configure ``module_id`` into the region (swap)."""
        engine = self.engines.get(module_id)
        if engine is None:
            raise KeyError(f"no engine with id {module_id:#x} in RR {self.rr_id:#x}")
        if self.active is engine:
            return engine
        if self.active is not None:
            self.active.swap_out()
        self.active = engine
        engine.swap_in()
        self._notify()
        return engine

    def deselect(self) -> None:
        """Mark the region unconfigured (reconfiguration in progress)."""
        if self.active is not None:
            self.active.swap_out()
            self.active = None
            self._notify()

    @property
    def active_id(self) -> Optional[int]:
        return None if self.active is None else self.active.ENGINE_ID

    # ------------------------------------------------------------------
    # Error injection override (ReSim artifact hook)
    # ------------------------------------------------------------------
    def set_injection(self, values_fn: Callable[[], Dict[str, object]]) -> None:
        self._injection_fn = values_fn
        self._notify()

    def clear_injection(self) -> None:
        self._injection_fn = None
        self._notify()

    def clear_injection_if(self, values_fn: Callable[[], Dict[str, object]]) -> bool:
        """Clear the override only if ``values_fn`` is the one installed.

        Transient-fault injectors use this so that releasing their X
        burst cannot stomp a *real* reconfiguration's error injection
        that started in the meantime.
        """
        if self._injection_fn is not values_fn:
            return False
        self.clear_injection()
        return True

    @property
    def injecting(self) -> bool:
        return self._injection_fn is not None

    # ------------------------------------------------------------------
    # Register pulse routing
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        if self.active is None:
            self.lost_start_pulses += 1
            return
        self.active.trigger_start()

    def _on_reset(self) -> None:
        if self.active is None:
            self.lost_reset_pulses += 1
            return
        self.active.reset()

    # ------------------------------------------------------------------
    # The multiplexer
    # ------------------------------------------------------------------
    def _notify(self) -> None:
        if self.sim is not None:
            self._update.set(self.sim)

    def _mux(self):
        # sensitivity list: every engine's boundary IO + selection changes
        while True:
            self._drive_outputs()
            triggers = [self._update.wait()]
            for engine in self.engines.values():
                triggers.extend(
                    (
                        Edge(engine.done_out),
                        Edge(engine.busy_out),
                        Edge(engine.error_out),
                        Edge(engine.io_activity),
                    )
                )
            yield First(*triggers)

    def _drive_outputs(self) -> None:
        if self._injection_fn is not None:
            values = self._injection_fn()
            self.out_done.next = values.get("done", xbits(1))
            self.out_busy.next = values.get("busy", xbits(1))
            self.out_error.next = values.get("error", xbits(1))
            self.out_io.next = values.get("io", xbits(8))
        elif self.active is not None:
            self.out_done.next = self.active.done_out.value
            self.out_busy.next = self.active.busy_out.value
            self.out_error.next = self.active.error_out.value
            self.out_io.next = self.active.io_activity.value
        else:
            # unconfigured region / undefined mux select: unknown outputs
            self.out_done.next = xbits(1)
            self.out_busy.next = xbits(1)
            self.out_error.next = xbits(1)
            self.out_io.next = xbits(8)
