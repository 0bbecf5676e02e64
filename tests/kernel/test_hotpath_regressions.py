"""Regression tests for the kernel hot-path overhaul.

Covers the is_high/is_low symmetry fix and proves the one commit rule
commits and fires edges exactly as a field-by-field three-valued
compare dictates, on X->defined and defined->X transitions too.
"""

import pytest

from repro.kernel import (
    LV,
    Clock,
    Edge,
    MHz,
    RisingEdge,
    Signal,
    Simulator,
    Timer,
    xbits,
)
from repro.kernel.logic import LogicVector, bit, intern_defined


# ----------------------------------------------------------------------
# is_high / is_low symmetry
# ----------------------------------------------------------------------
class TestHighLowSymmetry:
    def test_one_bit_defined(self):
        sig = Signal("s", 1, init=1)
        assert sig.is_high and not sig.is_low
        sig.next = 0  # unbound: applies at once
        assert sig.is_low and not sig.is_high

    @pytest.mark.parametrize("width", [2, 8, 32])
    def test_multibit_is_neither_high_nor_low(self, width):
        zeros = Signal("z", width, init=0)
        assert not zeros.is_low  # the old asymmetric behavior said True
        assert not zeros.is_high
        ones = Signal("o", width, init=1)
        assert not ones.is_high
        assert not ones.is_low

    @pytest.mark.parametrize("value", [xbits(1)])
    def test_undefined_bit_is_neither(self, value):
        sig = Signal("s", 1, init=value)
        assert not sig.is_high
        assert not sig.is_low

    def test_multibit_with_xz_is_neither(self):
        sig = Signal("s", 4, init=LogicVector(4, 0, xmask=0b0010))
        assert not sig.is_low and not sig.is_high
        sig.next = xbits(4)
        assert not sig.is_low and not sig.is_high


# ----------------------------------------------------------------------
# one commit rule == field-by-field three-valued compare
# ----------------------------------------------------------------------
class TestFastPathEquivalence:
    def _drive(self, width, transitions, watch=RisingEdge):
        """Drive `transitions` through a bound signal, return observations."""
        sim = Simulator()
        sig = Signal("s", width, init=transitions[0])
        sim.register_signal(sig)
        changes = []
        wakes = [0]

        def recorder():
            old = sig.value
            while True:
                yield Edge(sig)
                changes.append((old, sig.value))
                old = sig.value

        def watcher():
            while True:
                yield watch(sig)
                wakes[0] += 1

        def writer():
            for value in transitions[1:]:
                sig.next = value
                yield Timer(10)

        sim.fork(recorder())
        sim.fork(watcher())
        sim.fork(writer())
        sim.run()
        return sig, changes, wakes[0]

    def test_x_to_defined_transition(self):
        sig, changes, wakes = self._drive(1, [xbits(1), 1])
        assert sig.value == bit(1)
        assert changes == [(xbits(1), bit(1))]
        assert wakes == 1  # X->1 is a rising edge (new lsb defined 1)

    def test_defined_to_x_transition(self):
        sig, changes, wakes = self._drive(1, [0, xbits(1)])
        assert sig.value == xbits(1)
        assert changes == [(bit(0), xbits(1))]
        assert wakes == 0  # 0->X is not a defined rising edge

    def test_defined_to_defined_uses_fast_path(self):
        sig, changes, wakes = self._drive(1, [0, 1, 0, 1])
        assert [int(n.value) for _, n in changes] == [1, 0, 1]
        assert wakes == 2

    @pytest.mark.parametrize(
        "old,new",
        [
            (xbits(4), LV(5, 4)),
            (LV(5, 4), xbits(4)),
            (LogicVector(4, 0, xmask=0b0011), LV(0b1100, 4)),
            (LV(9, 4), LV(9, 4)),  # no change
            (LogicVector(4, 1, xmask=0b1000), LogicVector(4, 1, xmask=0b0100)),
        ],
    )
    def test_apply_matches_manual_four_state_compare(self, old, new):
        """One delta's commit agrees with a field-by-field comparison."""
        sim = Simulator()
        sig = Signal("s", 4, init=old)
        sim.register_signal(sig)
        sig.next = new
        sim.run()
        expected_change = not (
            new.value == old.value and new.xmask == old.xmask
        )
        assert sim.stats.deltas == 1
        assert sim.stats.value_changes == int(expected_change)
        assert sig.value == (new if expected_change else old)


# ----------------------------------------------------------------------
# interning and the clock
# ----------------------------------------------------------------------
class TestInterningAndClock:
    def test_small_defined_vectors_are_interned(self):
        assert bit(1) is bit(1)
        assert LogicVector.from_int(3, 4) is LogicVector.from_int(3, 4)
        assert intern_defined(8, 200) is intern_defined(8, 200)
        # wide vectors are not interned but still equal
        a, b = LogicVector.from_int(70_000, 32), LogicVector.from_int(70_000, 32)
        assert a == b

    def test_interned_vectors_are_immutable(self):
        with pytest.raises(AttributeError):
            bit(0).value = 1

    def test_one_bit_toggle_reuses_interned_values(self):
        sim = Simulator()
        sig = Signal("s", 1, init=0)
        sim.register_signal(sig)

        def toggler():
            for i in range(8):
                sig.next = (i + 1) & 1
                yield Timer(10)

        sim.fork(toggler())
        sim.run()
        assert sig.value is bit(0)

    def test_batched_clock_counts_value_changes(self):
        # clock edges are value changes, not process resumes
        sim = Simulator()
        clk = Clock("clk", MHz(100))
        sim.add_module(clk)
        sim.run(until=1000 * MHz(100))
        assert clk.cycles == 1000
        assert sim.stats.value_changes >= 2 * 1000
        assert sim.stats.changes_by_owner[clk] >= 2 * 1000

    def test_batched_clock_stops_at_until_boundary(self):
        sim = Simulator()
        clk = Clock("clk", MHz(100), start_high=True)
        sim.add_module(clk)
        period = MHz(100)
        # stop partway through a cycle
        sim.run(until=10 * period + period // 4)
        assert clk.cycles == 10
        assert clk.out.is_high  # started high, 10 full cycles later still high
        sim.run(until=10 * period + period // 2)
        assert clk.out.is_low  # half period later: toggled
