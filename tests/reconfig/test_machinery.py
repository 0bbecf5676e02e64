"""Integration tests of the reconfiguration machinery.

IcapCtrl DMA -> ICAP artifact -> Extended Portal -> RR slot swap, with
error injection and isolation — the complete "before / during / after"
reconfiguration path of the paper.
"""

import numpy as np
import pytest

from repro.bus import DcrBus, PlbBus, PlbMemory
from repro.engines import CensusImageEngine, EngineRegs, MatchingEngine
from repro.kernel import Clock, LogicVector, MHz, Module, Simulator
from repro.reconfig import (
    ExtendedPortal,
    IcapArtifact,
    IcapCtrl,
    Isolation,
    RRSlot,
    XInjector,
    build_simb,
)

BITSTREAM_BASE = 0x0004_0000
MEM_SIZE = 0x0010_0000
RR_ID = 0x1


class MachineryBench:
    def __init__(self, cfg_mhz=50, arbitrated=True, payload_words=64):
        self.sim = Simulator()
        self.top = Module("top")
        self.clk = Clock("clk", MHz(100), parent=self.top)
        self.cfg_clk = Clock("cfg_clk", MHz(cfg_mhz), parent=self.top)
        self.bus = PlbBus("plb", self.clk, parent=self.top)
        self.mem = PlbMemory("mem", MEM_SIZE, parent=self.top)
        self.bus.attach_slave(self.mem, base=0, size=MEM_SIZE)
        self.dcr = DcrBus("dcr", self.clk, parent=self.top)
        self.regs = EngineRegs("eregs", base=0x40, parent=self.top)
        self.dcr.attach(self.regs)
        self.cie = CensusImageEngine(clock=self.clk, parent=self.top)
        self.me = MatchingEngine(clock=self.clk, parent=self.top)
        self.slot = RRSlot(
            "rr0", RR_ID, self.bus.attach_master("rr0"), self.regs,
            [self.cie, self.me], parent=self.top,
        )
        self.isolation = Isolation("iso", self.slot, parent=self.top)
        self.injector = XInjector("inj", self.slot, parent=self.top)
        self.portal = ExtendedPortal("portal", self.slot, self.injector, parent=self.top)
        self.icap = IcapArtifact("icap", parent=self.top)
        self.icap.register_portal(self.portal)
        self.icapctrl = IcapCtrl(
            "icapctrl", base=0x60, bus=self.bus, icap=self.icap,
            bus_clock=self.clk, cfg_clock=self.cfg_clk,
            arbitrated=arbitrated, parent=self.top,
        )
        self.dcr.attach(self.icapctrl)
        self.payload_words = payload_words
        self.sim.add_module(self.top)

    def load_simb(self, module_id, payload_words=None, base=BITSTREAM_BASE):
        words = build_simb(
            RR_ID, module_id, payload_words or self.payload_words
        )
        self.mem.load_words(base, np.array(words, dtype=np.uint32))
        return len(words)

    def start_transfer(self, size_bytes, base=BITSTREAM_BASE):
        """Program and kick the DMA via the DCR bus (as software would)."""

        def driver():
            yield from self.dcr.write(self.icapctrl.addr_of("BADDR"), base)
            yield from self.dcr.write(self.icapctrl.addr_of("BSIZE"), size_bytes)
            yield from self.dcr.write(self.icapctrl.addr_of("CTRL"), 1)

        self.sim.fork(driver())

    def run_until_done(self, timeout_us=2000):
        deadline = self.sim.time + timeout_us * 1_000_000
        while self.sim.time < deadline:
            self.sim.run(until=min(self.sim.time + 1_000_000, deadline))
            if self.icapctrl.status_done:
                return True
        return False


def test_full_reconfiguration_swaps_module():
    bench = MachineryBench()
    bench.slot.select(bench.cie.ENGINE_ID)  # initial configuration
    n_words = bench.load_simb(bench.me.ENGINE_ID)
    bench.start_transfer(n_words * 4)
    assert bench.run_until_done()
    bench.sim.run_for(1_000_000)
    assert bench.slot.active is bench.me
    assert bench.portal.reconfigurations == 1
    assert bench.icap.words_received == n_words
    assert not bench.icap.framing_errors


def test_new_module_is_dirty_until_reset():
    bench = MachineryBench()
    bench.slot.select(bench.cie.ENGINE_ID)
    n_words = bench.load_simb(bench.me.ENGINE_ID)
    bench.start_transfer(n_words * 4)
    assert bench.run_until_done()
    assert bench.slot.active is bench.me
    assert not bench.me.is_reset


def test_reconfiguration_delay_tracks_simb_length_and_cfg_clock():
    """The delay is determined by bitstream transfer, not zero/constant."""
    durations = {}
    for payload in (64, 256):
        bench = MachineryBench(payload_words=payload)
        bench.slot.select(bench.cie.ENGINE_ID)
        n = bench.load_simb(bench.me.ENGINE_ID)
        t0 = bench.sim.time
        bench.start_transfer(n * 4)
        assert bench.run_until_done()
        durations[payload] = bench.portal.last_swap_duration()
    assert durations[256] > 3 * durations[64]

    slow = MachineryBench(cfg_mhz=10, payload_words=64)
    slow.slot.select(slow.cie.ENGINE_ID)
    n = slow.load_simb(slow.me.ENGINE_ID)
    slow.start_transfer(n * 4)
    assert slow.run_until_done()
    fast = MachineryBench(cfg_mhz=100, payload_words=64)
    fast.slot.select(fast.cie.ENGINE_ID)
    n = fast.load_simb(fast.me.ENGINE_ID)
    fast.start_transfer(n * 4)
    assert fast.run_until_done()
    assert slow.portal.last_swap_duration() > 3 * fast.portal.last_swap_duration()


def test_x_injected_during_reconfiguration_without_isolation():
    bench = MachineryBench()
    bench.slot.select(bench.cie.ENGINE_ID)
    n = bench.load_simb(bench.me.ENGINE_ID)
    bench.isolation.set_enabled(False)
    bench.start_transfer(n * 4)
    assert bench.run_until_done()
    bench.sim.run_for(1_000_000)
    # X escaped into the static region: the isolation monitor saw leaks
    assert bench.isolation.x_leaks > 0
    # and after reconfiguration the outputs are clean again
    assert not isinstance(bench.slot.out_done.value, LogicVector)


def test_isolation_blocks_x_when_enabled():
    bench = MachineryBench()
    bench.slot.select(bench.cie.ENGINE_ID)
    n = bench.load_simb(bench.me.ENGINE_ID)
    bench.isolation.set_enabled(True)
    bench.sim.run_for(100_000)
    leaks_before = bench.isolation.x_leaks
    bench.start_transfer(n * 4)
    assert bench.run_until_done()
    bench.sim.run_for(1_000_000)
    assert bench.isolation.x_leaks == leaks_before
    assert bench.isolation.out_done.value == 0


def test_injection_window_matches_payload():
    bench = MachineryBench()
    bench.slot.select(bench.cie.ENGINE_ID)
    n = bench.load_simb(bench.me.ENGINE_ID)
    bench.start_transfer(n * 4)
    assert bench.run_until_done()
    kinds = [r.kind for r in bench.portal.timeline]
    assert kinds == ["far", "inject_start", "swap", "desync"]
    assert bench.injector.injections == 1
    assert not bench.injector.active


def test_region_unconfigured_during_transfer():
    bench = MachineryBench(payload_words=512)
    bench.slot.select(bench.cie.ENGINE_ID)
    n = bench.load_simb(bench.me.ENGINE_ID)
    bench.start_transfer(n * 4)
    # run until mid-transfer
    for _ in range(400):
        bench.sim.run_for(1_000_000)
        if bench.injector.active:
            break
    assert bench.injector.active
    assert bench.slot.active is None
    # reset pulses are lost while unconfigured (bug.dpr.6b mechanism)
    before = bench.slot.lost_reset_pulses
    bench.regs._on_ctrl(0b10)
    assert bench.slot.lost_reset_pulses == before + 1
    assert bench.run_until_done()


def test_truncated_transfer_never_swaps():
    """bug.dpr.5: BSIZE programmed in words (4x too small)."""
    bench = MachineryBench()
    bench.slot.select(bench.cie.ENGINE_ID)
    n = bench.load_simb(bench.me.ENGINE_ID)
    bench.start_transfer(n)  # driver passes word count as BSIZE
    assert bench.run_until_done()
    bench.sim.run_for(2_000_000)
    # transfer "completed" from the DMA's point of view...
    assert bench.icapctrl.status_done
    # ...but the swap never happened: the region is stuck unconfigured
    # with error injection still active (system failure)
    assert bench.portal.reconfigurations == 0
    assert bench.slot.active is None
    assert bench.injector.active
    assert bench.icap.mid_reconfiguration


def test_point_to_point_mode_on_shared_bus_corrupts_stream():
    """bug.dpr.4: IcapCTRL in point-to-point mode on a shared PLB."""
    bench = MachineryBench(arbitrated=False)
    bench.slot.select(bench.cie.ENGINE_ID)
    n = bench.load_simb(bench.me.ENGINE_ID)
    bench.start_transfer(n * 4)
    assert bench.run_until_done()
    bench.sim.run_for(2_000_000)
    assert bench.bus.protocol_errors > 0
    assert bench.slot.active is bench.cie  # swap never happened
    assert bench.portal.reconfigurations == 0
    assert bench.icap.ignored_words > 0


def test_fifo_never_overflows_with_flow_control():
    bench = MachineryBench(cfg_mhz=10, payload_words=256)
    bench.slot.select(bench.cie.ENGINE_ID)
    n = bench.load_simb(bench.me.ENGINE_ID)
    bench.start_transfer(n * 4)
    assert bench.run_until_done()
    assert bench.icapctrl.fifo_overflows == 0
    assert bench.icapctrl.fifo_high_water <= bench.icapctrl.fifo_depth


def test_fifo_overflow_scenario_detectable():
    """§IV-B: SimB length/clocking chosen to provoke FIFO overflow."""
    bench = MachineryBench(cfg_mhz=5, payload_words=256)
    bench.icapctrl.ignore_fifo_space = True
    bench.slot.select(bench.cie.ENGINE_ID)
    n = bench.load_simb(bench.me.ENGINE_ID)
    bench.start_transfer(n * 4)
    bench.run_until_done(timeout_us=20000)
    assert bench.icapctrl.fifo_overflows > 0
    # dropped words mean the stream is corrupt: no successful swap
    assert bench.portal.reconfigurations == 0


def test_back_to_back_intra_frame_reconfigurations():
    """CIE -> ME -> CIE, the twice-per-frame swap of the demonstrator."""
    bench = MachineryBench()
    bench.slot.select(bench.cie.ENGINE_ID)
    for target in (bench.me, bench.cie):
        n = bench.load_simb(target.ENGINE_ID)
        bench.start_transfer(n * 4)
        assert bench.run_until_done()
        bench.sim.run_for(500_000)
        assert bench.slot.active is target

        def clear():
            bench.icapctrl.clear_done()
            yield from ()

        bench.sim.fork(clear())
        bench.sim.run_for(100_000)
    assert bench.portal.reconfigurations == 2
    assert bench.slot.swap_count >= 3


def test_unknown_module_id_flagged():
    bench = MachineryBench()
    bench.slot.select(bench.cie.ENGINE_ID)
    n = bench.load_simb(0x7F)  # no such engine
    bench.start_transfer(n * 4)
    assert bench.run_until_done()
    bench.sim.run_for(1_000_000)
    assert bench.portal.unknown_module_errors == 1
    assert bench.slot.active is None  # region left unconfigured
