"""Isolation-module contract tests (fault-tolerance satellite).

Armed isolation must absorb X completely — zero leaks, constant safe
values on every static-side output.  Disarmed isolation is transparent
and its leak counter is a precise metric: one count per *value change*
carrying X on each source signal, not one per process wake-up (the gate
re-evaluates all four paths whenever any sibling edge fires).
"""

from repro.kernel import xbits
from repro.kernel.logic import LogicVector
from repro.reconfig import XInjector

from .test_slot import make_slot


class TestArmedIsolation:
    def test_armed_absorbs_x_on_all_outputs(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        inj = XInjector("inj", slot)
        iso.set_enabled(True)
        sim.run_for(1000)
        inj.inject()
        sim.run_for(10_000)
        assert iso.x_leaks == 0
        assert iso.first_x_leak_at is None
        for sig in (iso.out_done, iso.out_busy, iso.out_error, iso.out_io):
            assert not sig.value.has_x
            assert sig.value == 0

    def test_armed_outputs_stay_constant_through_burst(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        inj = XInjector("inj", slot)
        iso.set_enabled(True)
        sim.run_for(1000)
        # toggle the injection repeatedly; static side must never move
        for _ in range(4):
            inj.inject()
            sim.run_for(2_000)
            assert iso.out_io.value == 0
            inj.release()
            sim.run_for(2_000)
            assert iso.out_io.value == 0
        assert iso.x_leaks == 0


class TestLeakCounting:
    def test_each_changed_signal_counts_exactly_once(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        slot.select(cie.ENGINE_ID)  # defined baseline: engine drives 0s
        inj = XInjector("inj", slot)
        iso.set_enabled(False)
        sim.run_for(1000)
        assert iso.x_leaks == 0
        inj.inject()  # all four sources go X in one event
        sim.run_for(20_000)  # many wake-ups; values no longer change
        assert iso.x_leaks == 4

    def test_stable_x_not_recounted_on_sibling_edges(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        iso.set_enabled(False)
        slot.deselect()  # unconfigured region: all outputs X
        sim.run_for(5_000)
        leaks = iso.x_leaks
        assert leaks == 4
        # a non-X change on one path wakes the gate; the other three
        # paths still carry the *same* X value and must not re-count
        slot.set_injection(lambda: {"done": 0})  # done=0, rest default X
        sim.run_for(5_000)
        assert iso.x_leaks == leaks

    def test_new_x_value_on_same_signal_counts_again(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        slot.select(cie.ENGINE_ID)  # defined baseline: engine drives 0s
        iso.set_enabled(False)
        sim.run_for(1000)
        assert iso.x_leaks == 0
        slot.set_injection(lambda: {"done": 0, "busy": 0, "error": 0,
                                    "io": xbits(8)})
        sim.run_for(5_000)
        assert iso.x_leaks == 1
        # distinct X pattern on io: a genuine new leak
        slot.set_injection(lambda: {"done": 0, "busy": 0, "error": 0,
                                    "io": LogicVector(8, 0, xmask=0b11)})
        sim.run_for(5_000)
        assert iso.x_leaks == 2

    def test_rearm_then_disarm_re_exposes_as_fresh_leak(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        inj = XInjector("inj", slot)
        iso.set_enabled(False)
        sim.run_for(1000)
        inj.inject()
        sim.run_for(5_000)
        assert iso.x_leaks == 4
        iso.set_enabled(True)  # absorb
        sim.run_for(5_000)
        assert iso.x_leaks == 4
        iso.set_enabled(False)  # X still driven: re-exposure is a leak
        sim.run_for(5_000)
        assert iso.x_leaks == 8

    def test_first_leak_timestamp_recorded_once(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        slot.select(cie.ENGINE_ID)  # defined baseline until the burst
        inj = XInjector("inj", slot)
        iso.set_enabled(False)
        sim.run_for(1000)
        assert iso.first_x_leak_at is None
        inj.inject()
        sim.run_for(5_000)
        first = iso.first_x_leak_at
        assert first is not None and first >= 1000
        inj.release()
        sim.run_for(1000)
        inj.inject()
        sim.run_for(5_000)
        assert iso.first_x_leak_at == first  # never overwritten


class TestOwnershipCheckedClear:
    def test_clear_injection_if_only_clears_own_fn(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        mine = lambda: {}
        theirs = lambda: {"done": 1}
        slot.set_injection(mine)
        assert slot.clear_injection_if(mine)
        assert not slot.injecting
        slot.set_injection(theirs)
        assert not slot.clear_injection_if(mine)  # someone else's: refuse
        assert slot.injecting
