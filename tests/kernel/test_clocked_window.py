"""The clocked window (``Simulator._run_clocked``) against the kernel's loops.

Each design below runs twice: once with window entries posted at clock
rises, so that the window runs the stretches between other timed
entries, and once with the same entries doing nothing.  What every
process saw (time, delta, the clock and signal values, the trigger it
was resumed with), the kernel counters and the timed queue left behind
must match.  The designs exercise what the window resumes besides a
lone rising-edge wait: several clocks, waits through ``First``, any-edge
waits on a clock, zero-delay timers, forks, an X driven onto a clock,
and runs that end inside a window on their ``until`` or event.
"""

import pytest

from repro.kernel import (
    Clock,
    Edge,
    Event,
    First,
    Module,
    RisingEdge,
    Simulator,
    Timer,
)
from repro.kernel.logic import xbits


class _Entry:
    """A timed entry that opens the window, or does nothing."""

    def __init__(self, opens):
        self.opens = opens
        self.opened = 0

    def _fire(self, sim):
        if self.opens and sim._run_clocked():
            self.opened += 1

    def __repr__(self):
        return "_Entry"


def _design(sim, top, log, entry, clocks, sig, event):
    """Processes on the clocks' rises, through First and on any edge."""
    a, b, c = clocks
    seen = [clk.out for clk in clocks] + [sig]

    def note(name, got):
        log.append(
            (name, sim.time, sim.delta, repr(got), [repr(s.value) for s in seen])
        )

    def on_rises(name, clk, every):
        n = 0
        while True:
            got = yield RisingEdge(clk.out)
            note(name, got)
            n += 1
            if n % every == 0:
                sig.next = n & 0xF
            if n % (2 * every) == 0:
                event.set(sim)

    def through_first():
        n = 0
        while True:
            n += 1
            got = yield First(RisingEdge(b.out), Timer(5_000))
            note("first_rise", got)
            got = yield First(event.wait(), Edge(sig))
            note("first_event", got)
            if n % 10 == 0:
                got = yield First(event.wait(), Timer(41))
                note("first_timer", got)

    def any_edge():
        for _ in range(40):
            got = yield Edge(c.out)
            note("any_edge", got)
        while True:
            got = yield event.wait()
            note("event", got)

    def zero_delay():
        n = 0
        while True:
            got = yield RisingEdge(a.out)
            note("zero_delay", got)
            n += 1
            if n % 25 == 0:
                got = yield Timer(0)
                note("zero_delay_timer", got)

    def forker():
        n = 0
        while True:
            yield RisingEdge(c.out)
            n += 1
            if n % 4 == 0:
                sim.fork(child(n), f"child{n}", owner=top)

    def child(n):
        got = yield RisingEdge(a.out)
        note(f"child{n}", got)
        got = yield RisingEdge(b.out)
        note(f"child{n}", got)

    def clock_x():
        # X on b, from a process the window resumes
        for _ in range(61):
            yield RisingEdge(a.out)
        b.out.next = xbits(1)
        got = yield RisingEdge(a.out)
        note("clock_x", got)

    def poster():
        # offer a window at a clock's next rise, as IcapCTRL's fetch does
        n = 0
        while True:
            n += 1
            clk = clocks[n % 3]
            yield RisingEdge(clk.out)
            sim._post_clocked(clk.next_rise(sim.time), entry)

    sim.fork(on_rises("on_a", a, 3), "on_a", owner=a)
    sim.fork(on_rises("on_b", b, 5), "on_b", owner=b)
    sim.fork(through_first(), "through_first", owner=top)
    sim.fork(any_edge(), "any_edge")
    sim.fork(zero_delay(), "zero_delay", owner=top)
    sim.fork(forker(), "forker", owner=c)
    sim.fork(clock_x(), "clock_x", owner=top)
    sim.fork(poster(), "poster")


def _observe(opens, runs):
    sim = Simulator()
    top = Module("top")
    clocks = (
        Clock("a", 10, parent=top),
        Clock("b", 14, parent=top, start_high=True),
        Clock("c", 33, parent=top),
    )
    sig = top.signal("sig", 4)
    sim.add_module(top)
    event = Event("event")
    stop = Event("stop")
    log = []
    entry = _Entry(opens)
    _design(sim, top, log, entry, clocks, sig, event)

    def stopper():
        for _ in range(92):
            yield RisingEdge(clocks[1].out)
        stop.set(sim)

    sim.fork(stopper(), "stopper")
    ends = []
    for until, by_event in runs:
        if by_event:
            ends.append(sim.run_until_event(stop, timeout=until))
        else:
            ends.append(sim.run(until=sim.time + until))
        ends.append((sim.time, sim.delta))
    st = sim.stats
    return (
        log,
        ends,
        (st.resumes, st.value_changes, st.deltas, st.timesteps, st.silent_timesteps),
        {o.path: n for o, n in st.resumes_by_owner.items() if n},
        {o.path: n for o, n in st.changes_by_owner.items() if n},
        sorted((when, seq, repr(trig)) for when, seq, trig in sim._timed),
    ), entry.opened


@pytest.mark.parametrize(
    "runs",
    [
        [(3_000, False)],
        # runs that end inside windows, on until and on the stop event
        [(451, False), (1, False), (2_000, True), (777, False)],
    ],
    ids=["one_run", "stops"],
)
def test_window_changes_nothing_observable(runs):
    shipped, opened = _observe(True, runs)
    assert opened > 0
    plain, none = _observe(False, runs)
    assert none == 0
    assert shipped == plain
