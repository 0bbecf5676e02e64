"""Regressions for the commit-width invariant of a signal.

A commit stores a vector of exactly ``signal.width`` bits: a stored
vector of the wrong width permanently corrupts VCD rendering and
slicing.  :attr:`~repro.kernel.signal.Signal.next` owns that rule — it
zero-extends a narrower vector, narrows a wider one whose extra bits
are zero, and raises :class:`SignalWriteError` for one that does not
fit — so every vector the update phase commits already has the width.
"""

import pytest

from repro.kernel import LV, LogicVector, Signal, Simulator
from repro.kernel.signal import SignalWriteError


class TestCommitWidthInvariant:
    def _run_commit(self, sig_width, lv):
        """Schedule ``lv`` through ``next`` and commit it in one run."""
        sim = Simulator()
        sig = Signal("s", sig_width, init=0)
        sim.register_signal(sig)
        sig.next = lv
        sim.run()
        return sig

    @pytest.mark.parametrize(
        "lv", [LV(1, 4), LV(0, 1), LogicVector(2, 0, xmask=0b10)]
    )
    def test_narrow_commit_is_widened(self, lv):
        sig = self._run_commit(8, lv)
        assert sig.value.width == 8
        assert sig.value == lv.resize(8)

    def test_wide_zero_padded_commit_is_narrowed(self):
        sig = self._run_commit(8, LV(0x55, 16))
        assert sig.value.width == 8
        assert sig.value.to_int() == 0x55

    def test_same_value_wrong_width_commit_keeps_declared_width(self):
        """The regression shape: value-equal, width-different commit."""
        sig = self._run_commit(8, LV(0, 16))
        assert sig.value.width == 8

    def test_oversized_value_raises(self):
        with pytest.raises(SignalWriteError):
            self._run_commit(4, LV(0x100, 12))
