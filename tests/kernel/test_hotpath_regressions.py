"""Regression tests for the kernel hot-path overhaul.

Covers ``is_high`` on multi-bit and X values and proves the one commit
rule commits and fires edges exactly as a field-by-field three-valued
compare dictates, on X->defined and defined->X transitions too.
"""

import pytest

from repro.kernel import (
    Clock,
    Edge,
    LogicVector,
    MHz,
    RisingEdge,
    Signal,
    Simulator,
    Timer,
    xbits,
)


def _fields(v):
    """``(value, xmask)`` of a signal value: an ``int`` has no X bit."""
    return (v, 0) if isinstance(v, int) else (v.value, v.xmask)


# ----------------------------------------------------------------------
# is_high: a 1-bit signal at a defined 1, nothing else
# ----------------------------------------------------------------------
class TestHighLowSymmetry:
    def test_one_bit_defined(self):
        sig = Signal("s", 1, init=1)
        assert sig.is_high
        sig.next = 0  # unbound: applies at once
        assert not sig.is_high and sig.value == 0

    @pytest.mark.parametrize("width", [2, 8, 32])
    def test_multibit_is_neither_high_nor_low(self, width):
        zeros = Signal("z", width, init=0)
        assert not zeros.is_high
        ones = Signal("o", width, init=1)
        assert not ones.is_high

    @pytest.mark.parametrize("value", [xbits(1)])
    def test_undefined_bit_is_neither(self, value):
        sig = Signal("s", 1, init=value)
        assert not sig.is_high
        assert sig.value != 0

    def test_multibit_with_xz_is_neither(self):
        sig = Signal("s", 4, init=LogicVector(4, 0, xmask=0b0010))
        assert not sig.is_high and sig.value != 0
        sig.next = xbits(4)
        assert not sig.is_high and sig.value != 0


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
        assert sig.value == 1
        assert changes == [(xbits(1), 1)]
        assert wakes == 1  # X->1 is a rising edge (new lsb defined 1)

    def test_defined_to_x_transition(self):
        sig, changes, wakes = self._drive(1, [0, xbits(1)])
        assert sig.value == xbits(1)
        assert changes == [(0, xbits(1))]
        assert wakes == 0  # 0->X is not a defined rising edge

    def test_defined_to_defined_uses_fast_path(self):
        sig, changes, wakes = self._drive(1, [0, 1, 0, 1])
        assert [n for _, n in changes] == [1, 0, 1]
        assert wakes == 2

    @pytest.mark.parametrize(
        "transitions,stored,rises",
        [
            # the LSB goes from X to a defined 1: a rising edge
            ([LogicVector(4, 0b0010, xmask=0b0001), 0b0011], 0b0011, 1),
            # defined -> X on a high bit: one change, no rise
            ([0b0001, LogicVector(4, 1, xmask=0b1000)],
             LogicVector(4, 1, xmask=0b1000), 0),
        ],
        ids=["lsb-x-to-1", "high-bit-to-x"],
    )
    def test_multibit_transition(self, transitions, stored, rises):
        sig, changes, wakes = self._drive(4, transitions)
        assert type(sig.value) is type(stored) and sig.value == stored
        assert changes == [(transitions[0], stored)]
        assert wakes == rises

    @pytest.mark.parametrize(
        "old,new",
        [
            (xbits(4), 5),
            (xbits(4), LogicVector(4, 5)),  # stored as the int 5
            (5, xbits(4)),
            (LogicVector(4, 0, xmask=0b0011), 0b1100),
            (9, 9),  # no change
            (LogicVector(4, 1, xmask=0b1000), LogicVector(4, 1, xmask=0b0100)),
            (9, LogicVector(4, 9)),  # no change: an X-free vector is 9
            (LogicVector(4, 3), xbits(4)),
        ],
    )
    def test_apply_matches_manual_four_state_compare(self, old, new):
        """One delta's commit agrees with a field-by-field comparison."""
        sim = Simulator()
        sig = Signal("s", 4, init=old)
        sim.register_signal(sig)
        sig.next = new
        sim.run()
        changed = _fields(new) != _fields(old)
        expected = new if changed else old
        assert sim.stats.deltas == 1
        assert sim.stats.value_changes == int(changed)
        assert _fields(sig.value) == _fields(expected)
        # a value without X is stored as an int
        assert isinstance(sig.value, int) == (not _fields(expected)[1])


# ----------------------------------------------------------------------
# the clock
# ----------------------------------------------------------------------
class TestClock:
    def test_clock_edges_count_as_value_changes(self):
        # clock edges are value changes, not process resumes
        sim = Simulator()
        clk = Clock("clk", MHz(100))
        sim.add_module(clk)
        sim.run(until=1000 * MHz(100))
        assert clk.cycles == 1000
        assert sim.stats.value_changes >= 2 * 1000
        assert sim.stats.changes_by_owner[clk] >= 2 * 1000

    def test_clock_stops_at_until_boundary(self):
        sim = Simulator()
        clk = Clock("clk", MHz(100), start_high=True)
        sim.add_module(clk)
        period = MHz(100)
        # stop partway through a cycle
        sim.run(until=10 * period + period // 4)
        assert clk.cycles == 10
        assert clk.out.is_high  # started high, 10 full cycles later still high
        sim.run(until=10 * period + period // 2)
        assert clk.out.value == 0  # half period later: toggled
