"""Tests for the Virtual Multiplexing wrapper."""

import pytest

from repro.bus import DcrBus, PlbBus, PlbMemory
from repro.engines import CensusImageEngine, EngineRegs, MatchingEngine
from repro.kernel import Clock, LogicVector, MHz, Module, Simulator
from repro.reconfig import RRSlot
from repro.vmux import VirtualMuxWrapper


def make_env(initial_signature=None):
    sim = Simulator()
    top = Module("top")
    clk = Clock("clk", MHz(100), parent=top)
    bus = PlbBus("plb", clk, parent=top)
    mem = PlbMemory("mem", 4096, parent=top)
    bus.attach_slave(mem, 0, 4096)
    dcr = DcrBus("dcr", clk, parent=top)
    regs = EngineRegs("eregs", base=0x10, parent=top)
    dcr.attach(regs)
    cie = CensusImageEngine(clock=clk, parent=top)
    me = MatchingEngine(clock=clk, parent=top)
    slot = RRSlot("rr0", 0x1, bus.attach_master("rr"), regs, [cie, me], parent=top)
    vmux = VirtualMuxWrapper(
        "vmux", slot, dcr_base=0x30, initial_signature=initial_signature,
        parent=top,
    )
    dcr.attach(vmux.signature)
    sim.add_module(top)
    return sim, top, dcr, slot, vmux, cie, me


def test_initial_signature_selects_engine():
    sim, top, dcr, slot, vmux, cie, me = make_env(initial_signature=0x1)
    assert slot.active is cie
    assert cie.is_reset  # vmux swaps are ideal


def test_uninitialized_signature_selects_nothing():
    """The bug.hw.2 situation: no engine active, outputs unknown."""
    sim, top, dcr, slot, vmux, cie, me = make_env(initial_signature=None)
    assert slot.active is None
    sim.run_for(1000)
    assert isinstance(slot.out_done.value, LogicVector)


def test_software_write_swaps_instantly():
    sim, top, dcr, slot, vmux, cie, me = make_env(initial_signature=0x1)
    t = {}

    def sw():
        t0 = sim.time
        yield from dcr.write(vmux.signature.addr_of("SIG"), 0x2)
        t["dur"] = sim.time - t0

    sim.fork(sw())
    sim.run_for(10_000_000)
    assert slot.active is me
    assert me.is_reset  # no dirty-state modeling under vmux
    # swap latency is just the DCR write (a handful of cycles)
    assert t["dur"] < 200_000
    assert vmux.swaps >= 2


def test_unknown_signature_value_deselects_and_counts():
    sim, top, dcr, slot, vmux, cie, me = make_env(initial_signature=0x1)

    def sw():
        yield from dcr.write(vmux.signature.addr_of("SIG"), 0x7F)

    sim.fork(sw())
    sim.run_for(10_000_000)
    assert slot.active is None
    assert vmux.bad_signature_writes == 1


def test_write_zero_means_none():
    sim, top, dcr, slot, vmux, cie, me = make_env(initial_signature=0x1)

    def sw():
        yield from dcr.write(vmux.signature.addr_of("SIG"), 0)

    sim.fork(sw())
    sim.run_for(10_000_000)
    assert slot.active is None
    assert vmux.bad_signature_writes == 0  # 0 is the legitimate "none"


def test_active_id_tracks_slot():
    sim, top, dcr, slot, vmux, cie, me = make_env(initial_signature=0x2)
    assert vmux.active_id == 0x2
