"""The Engine_wrapper of Virtual Multiplexing.

A simulation-only DCR register (``engine_signature``) selects which of
the parallel-instantiated engines is active; writing it swaps engines
instantaneously.  The wrapper reuses :class:`repro.reconfig.slot.RRSlot`
for the physical mux (the paper's two methods share that structure —
compare Figs. 3 and 4) but replaces the portal-driven selection with
register-driven selection.

``bug.hw.2`` lives here: the signature register powers up *unselected*
unless the testbench initializes it, producing a "no engine active"
hang that does not exist on real hardware — the false alarm of
Table III.
"""

from __future__ import annotations

from typing import Optional

from ..bus.dcr import DcrRegisterFile
from ..kernel import Module

__all__ = ["EngineSignatureRegister", "VirtualMuxWrapper"]

#: signature value meaning "no engine selected" (uninitialized mux)
SIG_NONE = 0


class EngineSignatureRegister(DcrRegisterFile):
    """The simulation-only DCR register that drives the virtual mux."""

    def __init__(self, name: str, base: int, wrapper: "VirtualMuxWrapper", parent=None):
        super().__init__(name, base, size=2, parent=parent)
        self.add_register("SIG", 0, init=SIG_NONE, on_write=wrapper._on_signature)


class VirtualMuxWrapper(Module):
    """Engine_wrapper: signature-register-driven module selection."""

    def __init__(
        self,
        name: str,
        slot,
        dcr_base: int,
        initial_signature: Optional[int] = None,
        parent=None,
    ):
        super().__init__(name, parent)
        self.slot = slot
        self.signature = EngineSignatureRegister(
            f"{name}_sig", dcr_base, self, parent=self
        )
        self.swaps = 0
        self.bad_signature_writes = 0
        if initial_signature is not None:
            # the bug.hw.2 *fix*: reset engine_signature at start up
            self.signature.poke("SIG", initial_signature)
            self._select(initial_signature)

    def _on_signature(self, value: int) -> None:
        self._select(value)

    def _select(self, value: int) -> None:
        if value == SIG_NONE or value not in self.slot.engines:
            if value != SIG_NONE:
                self.bad_signature_writes += 1
            self.slot.deselect()
            return
        engine = self.slot.select(value)
        self.swaps += 1
        # Virtual multiplexing models an ideal swap: the engine appears
        # fully formed, with none of the dirty-state behaviour of a real
        # partial bitstream load.
        engine.is_reset = True

    @property
    def active_id(self) -> Optional[int]:
        return self.slot.active_id
