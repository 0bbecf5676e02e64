"""Regressions for the force()-cancellation and commit-width bugfixes.

Two distinct invariants of :class:`~repro.kernel.signal.Signal`:

* ``force()`` cancels a same-delta queued update — without the
  cancellation, ``s.next = 5; s.force(0xAA)`` would let the queued 5
  silently clobber the injected 0xAA at the next update phase (this is
  exactly how a testbench arms error injection, so the clobbering lost
  the stimulus);
* a commit stores a vector of exactly ``signal.width`` bits, even when
  a raw scheduler client bypasses the ``next`` coercion — a mis-sized
  stored vector permanently corrupts VCD rendering and slicing.
"""

import io

import pytest

from repro.kernel import (
    LV,
    Edge,
    Module,
    Signal,
    Simulator,
    Timer,
    VcdWriter,
)
from repro.kernel.logic import LogicVector
from repro.kernel.signal import SignalWriteError


# ----------------------------------------------------------------------
# force() cancels the pending queued update
# ----------------------------------------------------------------------
class TestForceCancelsPendingUpdate:
    def test_force_after_next_wins(self):
        """The injected value survives the update phase (pre-fix: 5 won)."""
        sim = Simulator()
        sig = Signal("s", 8, init=0)
        sim.register_signal(sig)
        observed = []

        def proc():
            sig.next = 5
            sig.force(0xAA)
            yield Timer(10)
            observed.append(sig.value.to_int())

        sim.fork(proc())
        sim.run()
        assert observed == [0xAA]
        assert sig.value.to_int() == 0xAA

    def test_force_then_next_still_commits(self):
        """Only updates queued *before* the force are cancelled."""
        sim = Simulator()
        sig = Signal("s", 8, init=0)
        sim.register_signal(sig)

        def proc():
            sig.force(0xAA)
            sig.next = 5
            yield Timer(10)

        sim.fork(proc())
        sim.run()
        assert sig.value.to_int() == 5

    def test_cancelled_update_fires_no_edge(self):
        """The cancelled commit never happened: no wake, no change count."""
        sim = Simulator()
        sig = Signal("s", 8, init=0)
        sim.register_signal(sig)
        woke = [0]

        def watcher():
            while True:
                yield Edge(sig)
                woke[0] += 1

        def proc():
            sig.next = 5
            sig.force(0xAA)
            yield Timer(10)

        sim.fork(watcher())
        sim.fork(proc())
        sim.run()
        assert woke[0] == 0
        assert sig.change_count == 0

    def test_force_cancellation_is_per_signal(self):
        """An unrelated signal's queued update is untouched."""
        sim = Simulator()
        a = Signal("a", 8, init=0)
        b = Signal("b", 8, init=0)
        sim.register_signal(a)
        sim.register_signal(b)

        def proc():
            a.next = 1
            b.next = 2
            a.force(0xF0)
            yield Timer(10)

        sim.fork(proc())
        sim.run()
        assert a.value.to_int() == 0xF0
        assert b.value.to_int() == 2

    def test_forced_value_recorded_to_vcd(self):
        """The injection is visible in the waveform at force time."""
        sim = Simulator()
        top = Module("top")
        sig = top.signal("data", 8, init=0)
        stream = io.StringIO()
        writer = VcdWriter(stream, timescale="1ps")
        writer.trace(sig, scope="top")
        sim.add_module(top)
        sim.attach_vcd(writer)

        def proc():
            yield Timer(10_000)
            sig.next = 5
            sig.force(0xAA)
            yield Timer(10_000)

        sim.fork(proc())
        sim.run()
        sim.close()
        text = stream.getvalue()
        assert "b10101010 " in text  # 0xAA at force time
        # the cancelled 5 never reached the waveform
        assert "b00000101 " not in text


# ----------------------------------------------------------------------
# commit width invariant
# ----------------------------------------------------------------------
class TestCommitWidthInvariant:
    def _run_raw_commit(self, sig_width, lv):
        """Inject a raw (uncoerced) update the way a scheduler client can."""
        sim = Simulator()
        sig = Signal("s", sig_width, init=0)
        sim.register_signal(sig)

        def proc():
            sim._updates[sig] = lv
            yield Timer(10)

        sim.fork(proc())
        sim.run()
        return sig

    @pytest.mark.parametrize("lv", [LV(1, 4), LV(0, 1), LV("x0")])
    def test_narrow_commit_is_widened(self, lv):
        sig = self._run_raw_commit(8, lv)
        assert sig.value.width == 8

    def test_wide_zero_padded_commit_is_narrowed(self):
        sig = self._run_raw_commit(8, LV(0x55, 16))
        assert sig.value.width == 8
        assert sig.value.to_int() == 0x55

    def test_same_value_wrong_width_commit_keeps_declared_width(self):
        """The regression shape: value-equal, width-different commit."""
        sig = self._run_raw_commit(8, LV(0, 16))
        # pre-fix: the 16-bit vector was stored verbatim (same-value
        # commits skipped normalization), silently widening the signal
        assert sig.value.width == 8

    def test_oversized_value_raises(self):
        with pytest.raises(SignalWriteError):
            self._run_raw_commit(4, LV(0x100, 12))

    def test_apply_is_canonical(self):
        """Signal._apply itself normalizes (it is the spec of commit)."""
        sig = Signal("s", 8, init=0)
        changed, old = sig._apply(LogicVector.from_int(3, 4))
        assert changed and old.to_int() == 0
        assert sig.value.width == 8 and sig.value.to_int() == 3
