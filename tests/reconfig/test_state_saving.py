"""State saving and restoration (the ReSim GCAPTURE/GRESTORE extension).

The companion work the paper cites ([13], FPGA'12) verifies saving a
reconfigurable module's flip-flop state through configuration readback
and restoring it when the module is configured back in.  These tests
drive the full path: GCAPTURE SimB -> ICAP readback FIFO -> IcapCTRL
readback DMA -> memory, then a restore SimB whose payload carries the
saved state and whose GRESTORE command loads it into the newly
configured module.
"""

import numpy as np
import pytest

from repro.reconfig import (
    GCAPTURE_CMD,
    GRESTORE_CMD,
    SimBError,
    SimBParser,
    build_capture_simb,
    build_restore_simb,
    build_simb,
    decode_simb,
)

from .test_machinery import BITSTREAM_BASE, RR_ID, MachineryBench

SAVE_BASE = 0x0008_0000


class TestSimBExtensions:
    def test_capture_simb_decodes(self):
        events = decode_simb(build_capture_simb(RR_ID, 6))
        kinds = [e.kind for e in events]
        assert "gcapture" in kinds
        fdro = next(e for e in events if e.kind == "fdro")
        assert fdro.size == 6
        assert kinds[-1] == "desync"

    def test_restore_simb_decodes(self):
        state = [0x57A7E002, 1, 2, 3, 4, 5]
        events = decode_simb(build_restore_simb(RR_ID, 0x2, state))
        kinds = [e.kind for e in events]
        assert "grestore" in kinds
        assert kinds.index("payload_end") < kinds.index("grestore")
        payload = [e.value for e in events if e.kind == "payload"]
        assert payload == state

    def test_gcapture_before_far_rejected(self):
        parser = SimBParser()
        parser.push(0xAA995566)
        parser.push(0x30008001)
        with pytest.raises(SimBError):
            parser.push(GCAPTURE_CMD)

    def test_grestore_before_far_rejected(self):
        parser = SimBParser()
        parser.push(0xAA995566)
        parser.push(0x30008001)
        with pytest.raises(SimBError):
            parser.push(GRESTORE_CMD)

    def test_capture_needs_positive_read(self):
        with pytest.raises(ValueError):
            build_capture_simb(RR_ID, 0)

    def test_restore_needs_state(self):
        with pytest.raises(ValueError):
            build_restore_simb(RR_ID, 1, [])


class TestEngineStateVector:
    def test_capture_restore_roundtrip(self):
        bench = MachineryBench()
        bench.slot.select(bench.cie.ENGINE_ID)
        bench.cie.reset()
        bench.cie.frames_processed = 7
        bench.cie._lfsr = 0x1234
        state = bench.cie.capture_state()
        # scramble then restore
        bench.cie.is_reset = False
        bench.cie.frames_processed = 0
        bench.cie._lfsr = 0
        assert bench.cie.restore_state(state)
        assert bench.cie.is_reset
        assert bench.cie.frames_processed == 7
        assert bench.cie._lfsr == 0x1234

    def test_wrong_magic_rejected(self):
        bench = MachineryBench()
        state = bench.cie.capture_state()
        assert not bench.me.restore_state(state)  # CIE state into ME
        assert bench.me.restore_errors == 1

    def test_short_vector_rejected(self):
        bench = MachineryBench()
        assert not bench.cie.restore_state([bench.cie.state_magic])


def run_capture_readback(bench, read_words=6, after_capture=None):
    """Drive capture SimB + readback DMA; returns the saved words.

    ``after_capture()``, if given, runs between the two transfers.
    """
    cap = build_capture_simb(RR_ID, read_words)
    bench.mem.load_words(BITSTREAM_BASE, np.array(cap, dtype=np.uint32))
    bench.start_transfer(len(cap) * 4)
    assert bench.run_until_done()
    if after_capture is not None:
        after_capture()

    def rb_driver():
        # W1C acknowledge of the previous transfer's done bit
        yield from bench.dcr.write(bench.icapctrl.addr_of("STATUS"), 1)
        yield from bench.dcr.write(bench.icapctrl.addr_of("RBADDR"), SAVE_BASE)
        yield from bench.dcr.write(
            bench.icapctrl.addr_of("RBSIZE"), read_words * 4
        )
        yield from bench.dcr.write(bench.icapctrl.addr_of("CTRL"), 2)

    bench.sim.fork(rb_driver())
    assert bench.run_until_done()
    return [int(w) for w in bench.mem.dump_words(SAVE_BASE, read_words)]


class TestFullSaveRestorePath:
    def test_capture_readback_to_memory(self):
        bench = MachineryBench()
        bench.slot.select(bench.cie.ENGINE_ID)
        bench.cie.reset()
        bench.cie.frames_processed = 3
        saved = run_capture_readback(bench)
        assert saved == bench.cie.capture_state()
        assert bench.icapctrl.readbacks_completed == 1
        assert bench.portal.captures == 1

    def test_save_swap_restore_resumes_state(self):
        """The headline flow: save CIE, run ME, restore CIE with state."""
        bench = MachineryBench()
        bench.slot.select(bench.cie.ENGINE_ID)
        bench.cie.reset()
        bench.cie.frames_processed = 5
        saved = run_capture_readback(bench)

        # swap to ME (ordinary configuration; CIE state would be lost)
        n = bench.load_simb(bench.me.ENGINE_ID)
        def clear():
            bench.icapctrl.clear_done()
            yield from ()
        bench.sim.fork(clear())
        bench.start_transfer(n * 4)
        assert bench.run_until_done()
        assert bench.slot.active is bench.me

        # configure the CIE back WITH its saved state
        restore = build_restore_simb(RR_ID, bench.cie.ENGINE_ID, saved)
        bench.mem.load_words(BITSTREAM_BASE, np.array(restore, dtype=np.uint32))
        bench.sim.fork(clear())
        bench.start_transfer(len(restore) * 4)
        assert bench.run_until_done()
        bench.sim.run_for(1_000_000)

        assert bench.slot.active is bench.cie
        assert bench.portal.restores == 1
        assert bench.cie.frames_processed == 5  # state survived the swap
        assert bench.cie.is_reset  # restored state includes reset status

    def test_plain_reconfiguration_loses_state(self):
        """Contrast: without GRESTORE the module powers up dirty."""
        bench = MachineryBench()
        bench.slot.select(bench.cie.ENGINE_ID)
        bench.cie.reset()
        bench.cie.frames_processed = 5
        for target in (bench.me.ENGINE_ID, bench.cie.ENGINE_ID):
            n = bench.load_simb(target)
            def clear():
                bench.icapctrl.clear_done()
                yield from ()
            bench.sim.fork(clear())
            bench.start_transfer(n * 4)
            assert bench.run_until_done()
        assert bench.slot.active is bench.cie
        assert not bench.cie.is_reset  # dirty, and...
        # (counter state is a Python attr so it persists in the model;
        # the architectural contract is the is_reset/dirty flag)

    def test_capture_with_empty_region_flags_error(self):
        bench = MachineryBench()
        bench.slot.deselect()
        saved = run_capture_readback(bench)
        assert bench.portal.capture_errors == 1
        assert all(w == bench.icap.READBACK_PAD for w in saved)

    def test_clean_readback_after_acknowledged_error_reports_no_error(self):
        """An error latched on the capture transfer and acknowledged with
        a DONE-only STATUS write must not resurface when the following,
        clean readback completes."""
        bench = MachineryBench()
        bench.slot.select(bench.cie.ENGINE_ID)
        bench.cie.reset()
        ctrl = bench.icapctrl
        errors = []

        def fault():
            ctrl._latch_error("injected transfer fault")
            errors.append(len(ctrl.error_events))

        saved = run_capture_readback(bench, after_capture=fault)
        assert saved == bench.cie.capture_state()
        assert ctrl.readbacks_completed == 1
        assert ctrl.status_done
        assert not ctrl.status_error
        assert len(ctrl.error_events) == errors[0]

    def test_readback_underflow_pads(self):
        bench = MachineryBench()
        bench.slot.select(bench.cie.ENGINE_ID)
        saved = run_capture_readback(bench, read_words=10)
        assert saved[:6] == bench.cie.capture_state()
        assert all(w == bench.icap.READBACK_PAD for w in saved[6:])

    def test_restore_wrong_module_state_fails(self):
        """Integration bug: restoring the CIE's state into the ME."""
        bench = MachineryBench()
        bench.slot.select(bench.cie.ENGINE_ID)
        bench.cie.reset()
        saved = run_capture_readback(bench)
        restore = build_restore_simb(RR_ID, bench.me.ENGINE_ID, saved)
        bench.mem.load_words(BITSTREAM_BASE, np.array(restore, dtype=np.uint32))

        def clear():
            bench.icapctrl.clear_done()
            yield from ()

        bench.sim.fork(clear())
        bench.start_transfer(len(restore) * 4)
        assert bench.run_until_done()
        bench.sim.run_for(1_000_000)
        assert bench.slot.active is bench.me
        assert bench.portal.restore_failures == 1
        assert not bench.me.is_reset  # left dirty: the bug is observable
