"""Direct unit tests for the RR slot, isolation and injectors."""

import pytest

from repro.bus import PlbBus, PlbMemory
from repro.engines import CensusImageEngine, EngineRegs, MatchingEngine
from repro.kernel import Clock, LogicVector, MHz, Module, Simulator, xbits
from repro.reconfig import Isolation, NoopInjector, RRSlot, XInjector


def make_slot():
    sim = Simulator()
    top = Module("top")
    clk = Clock("clk", MHz(100), parent=top)
    bus = PlbBus("plb", clk, parent=top)
    mem = PlbMemory("mem", 4096, parent=top)
    bus.attach_slave(mem, 0, 4096)
    regs = EngineRegs("eregs", base=0x10, parent=top)
    cie = CensusImageEngine(clock=clk, parent=top)
    me = MatchingEngine(clock=clk, parent=top)
    slot = RRSlot("rr0", 0x1, bus.attach_master("rr"), regs, [cie, me], parent=top)
    iso = Isolation("iso", slot, parent=top)
    sim.add_module(top)
    return sim, top, regs, slot, iso, cie, me


class TestSlotSelection:
    def test_select_swaps_engines(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        slot.select(cie.ENGINE_ID)
        assert slot.active is cie and cie.present
        slot.select(me.ENGINE_ID)
        assert slot.active is me and me.present and not cie.present
        assert slot.swap_count == 2

    def test_select_same_engine_is_idempotent(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        slot.select(cie.ENGINE_ID)
        cie.is_reset = True
        slot.select(cie.ENGINE_ID)  # no swap: state untouched
        assert cie.is_reset
        assert slot.swap_count == 1

    def test_select_unknown_id_raises(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        with pytest.raises(KeyError):
            slot.select(0x55)

    def test_duplicate_engine_ids_rejected(self):
        sim = Simulator()
        top = Module("top")
        clk = Clock("clk", MHz(100), parent=top)
        bus = PlbBus("plb", clk, parent=top)
        regs = EngineRegs("eregs", base=0x10, parent=top)
        a = CensusImageEngine("a", clock=clk, parent=top)
        b = CensusImageEngine("b", clock=clk, parent=top)
        with pytest.raises(ValueError):
            RRSlot("rr0", 1, bus.attach_master("rr"), regs, [a, b], parent=top)

    def test_deselect_marks_region_empty(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        slot.select(cie.ENGINE_ID)
        slot.deselect()
        assert slot.active is None and not cie.present
        sim.run_for(1000)
        assert isinstance(slot.out_done.value, LogicVector)  # undefined mux select


class TestPulseRouting:
    def test_pulses_reach_active_engine(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        slot.select(cie.ENGINE_ID)
        regs._on_ctrl(0b10)  # reset
        assert cie.is_reset
        assert slot.lost_reset_pulses == 0

    def test_pulses_lost_when_empty(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        regs._on_ctrl(0b10)
        regs._on_ctrl(0b01)
        assert slot.lost_reset_pulses == 1
        assert slot.lost_start_pulses == 1
        assert not cie.is_reset and not me.is_reset

    def test_ctrl_register_self_clears(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        regs._on_ctrl(0b11)
        assert regs.peek("CTRL") == 0


class TestInjectionOverride:
    def test_injection_drives_custom_values(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        slot.select(cie.ENGINE_ID)

        class Ones(XInjector):
            def injection_values(self):
                return {"done": 1, "busy": 1, "error": 0, "io": 0xAA}

        inj = Ones("inj", slot, parent=None)
        inj.inject()
        sim.run_for(1000)
        assert slot.out_done.value == 1
        assert slot.out_io.value == 0xAA
        inj.release()
        sim.run_for(1000)
        assert slot.out_done.value == 0  # back to the engine's outputs

    def test_x_injector_drives_x(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        slot.select(cie.ENGINE_ID)
        inj = XInjector("inj", slot)
        inj.inject()
        sim.run_for(1000)
        assert isinstance(slot.out_done.value, LogicVector)
        assert isinstance(slot.out_io.value, LogicVector)

    def test_noop_injector_drives_benign_constants(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        slot.select(cie.ENGINE_ID)
        inj = NoopInjector("inj", slot)
        inj.inject()
        sim.run_for(1000)
        assert slot.out_done.value == 0
        assert not isinstance(slot.out_io.value, LogicVector)

    def test_injection_counters(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        inj = XInjector("inj", slot)
        for _ in range(3):
            inj.inject()
            inj.release()
        assert inj.injections == 3
        assert not inj.active


class TestIsolation:
    def test_enabled_isolation_gates_x(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        inj = XInjector("inj", slot)
        iso.set_enabled(True)
        sim.run_for(1000)
        leaks0 = iso.x_leaks
        inj.inject()
        sim.run_for(10_000)
        assert iso.out_done.value == 0
        assert iso.x_leaks == leaks0

    def test_disabled_isolation_leaks_x(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        inj = XInjector("inj", slot)
        iso.set_enabled(False)
        inj.inject()
        sim.run_for(10_000)
        assert isinstance(iso.out_done.value, LogicVector)
        assert iso.x_leaks > 0

    def test_transparent_when_idle(self):
        sim, top, regs, slot, iso, cie, me = make_slot()
        slot.select(cie.ENGINE_ID)
        sim.run_for(1000)
        assert iso.out_done.value == 0
        assert iso.out_busy.value == 0
