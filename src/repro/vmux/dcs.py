"""Dynamic Circuit Switch (DCS)-style simulation — the §II middle ground.

Between Virtual Multiplexing and ReSim, the paper's related-work section
describes the Dynamic Circuit Switch approach (Lysaght & Stockwood '96,
Robertson & Irvine '02/'04): simulation-only artifacts deactivate,
switch and activate the modules and inject undefined ``X`` into the
static region while a reconfiguration is "in progress" — but the delay
is a **constant** chosen by the designer, the swap is triggered by
**designer-selected signals** (here: the signature register, as in
VMux), and **no bitstream traffic exists**, so "bugs introduced by the
transfer of bitstreams and the triggering of module swapping can not be
detected until the implemented design is tested on the target FPGA".

:class:`DcsWrapper` models exactly that: a signature write starts a
swap *sequence* — deactivate the old module, inject X for a fixed
number of cycles, then activate the new module **dirty** (unlike VMux's
ideal swap, DCS models module activation, so a missing reset is
observable).  The IcapCTRL remains unexercised.
"""

from __future__ import annotations

from typing import Optional

from ..kernel import Event, Module, Timer
from .wrapper import SIG_NONE, EngineSignatureRegister

__all__ = ["DcsWrapper"]


class DcsWrapper(Module):
    """Signature-triggered swap with X injection and constant delay."""

    #: the constant "reconfiguration time", in clock cycles
    SWAP_DELAY_CYCLES = 64

    def __init__(
        self,
        name: str,
        slot,
        injector,
        clock,
        dcr_base: int,
        initial_signature: Optional[int] = None,
        parent=None,
    ):
        super().__init__(name, parent)
        self.slot = slot
        self.injector = injector
        self.clock = clock
        self.signature = EngineSignatureRegister(
            f"{name}_sig", dcr_base, self, parent=self
        )
        self.swaps = 0
        self.bad_signature_writes = 0
        self._target: Optional[int] = None
        self._request = Event(f"{name}.swap_request")
        #: fires when a swap sequence (delay window) completes
        self.swap_done = Event(f"{name}.swap_done")
        if initial_signature is not None:
            # power-up configuration: instantaneous, like the full
            # bitstream load at boot (and reset by it)
            self.signature.poke("SIG", initial_signature)
            engine = slot.select(initial_signature)
            engine.is_reset = True
        self.process(self._swap_sequencer, "swap_sequencer")

    # EngineSignatureRegister callback
    def _on_signature(self, value: int) -> None:
        if value == SIG_NONE or value not in self.slot.engines:
            if value != SIG_NONE:
                self.bad_signature_writes += 1
            self.slot.deselect()
            return
        self._target = value
        if self.sim is not None:
            self._request.set(self.sim)

    def _swap_sequencer(self):
        period = self.clock.period
        while True:
            yield self._request.wait()
            target = self._target
            if target is None:
                continue
            # deactivate + inject for the constant "reconfiguration time"
            self.slot.deselect()
            self.injector.inject()
            yield Timer(self.SWAP_DELAY_CYCLES * period)
            self.injector.release()
            # activate the new module; DCS models activation, so the
            # module appears with undefined state (needs a reset)
            self.slot.select(target)
            self.swaps += 1
            self.swap_done.set(self.sim, target)

    @property
    def active_id(self) -> Optional[int]:
        return self.slot.active_id
