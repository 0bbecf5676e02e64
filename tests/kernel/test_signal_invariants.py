"""Regressions for the commit-width invariant of a signal.

A commit stores a value of exactly ``signal.width`` bits: a stored
vector of the wrong width permanently corrupts VCD rendering.
:attr:`~repro.kernel.signal.Signal.next` owns that rule — it
zero-extends a narrower vector, narrows a wider one whose extra bits
are zero, and raises :class:`SignalWriteError` for one that does not
fit — so every vector the update phase commits already has the width.
A vector without X bits is committed as its ``int``.
"""

import pytest

from repro.kernel import LogicVector, Signal, Simulator, xbits
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
        "lv",
        [LogicVector(4, 1), LogicVector(1, 0), LogicVector(2, 0, xmask=0b10)],
    )
    def test_narrow_commit_is_widened(self, lv):
        sig = self._run_commit(8, lv)
        if lv.xmask:
            assert sig.value.width == 8
            assert sig.value == lv.resize(8)
        else:
            assert sig.value == lv.value

    def test_wide_zero_padded_commit_is_narrowed(self):
        sig = self._run_commit(8, LogicVector(16, 0x55))
        assert sig.value == 0x55
        sig = self._run_commit(8, LogicVector(16, 0x55, xmask=0x02))
        assert sig.value == LogicVector(8, 0x55, xmask=0x02)

    def test_same_value_wrong_width_commit_keeps_declared_width(self):
        """The regression shape: value-equal, width-different commit."""
        sig = self._run_commit(8, LogicVector(16, 0))
        assert sig.value == 0
        sig = self._run_commit(8, LogicVector(16, 0, xmask=0x00FF))
        assert sig.value == xbits(8)

    def test_oversized_value_raises(self):
        with pytest.raises(SignalWriteError):
            self._run_commit(4, LogicVector(12, 0x100))
        with pytest.raises(SignalWriteError):
            self._run_commit(4, 0x10)
        with pytest.raises(SignalWriteError):
            self._run_commit(4, LogicVector(12, 0, xmask=0x100))
