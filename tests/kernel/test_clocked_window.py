"""Clock-driven schedules of the kernel's timestep loop, pinned.

The design below keeps three clocks and a signal busy with processes
that wait in every way a clock can wake them: rising edges, ``First``
of a rise and a timer, any-edge waits on a clock, zero-delay timers,
forks, and an X driven onto a clock.  Two run lists, one run and runs
that end on their ``until`` and on an event, must reproduce a digest of
what every process saw (time, delta, the clock and signal values, the
trigger it was resumed with), the kernel counters and the timed queue
left behind, recorded from a kernel whose timestep loop settled every
step through the delta loop.
"""

import hashlib

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


def _design(sim, top, log, clocks, sig, event):
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
        # X on b, from a process a rise resumes
        for _ in range(61):
            yield RisingEdge(a.out)
        b.out.next = xbits(1)
        got = yield RisingEdge(a.out)
        note("clock_x", got)

    sim.fork(on_rises("on_a", a, 3), "on_a", owner=a)
    sim.fork(on_rises("on_b", b, 5), "on_b", owner=b)
    sim.fork(through_first(), "through_first", owner=top)
    sim.fork(any_edge(), "any_edge")
    sim.fork(zero_delay(), "zero_delay", owner=top)
    sim.fork(forker(), "forker", owner=c)
    sim.fork(clock_x(), "clock_x", owner=top)


def _observe(runs):
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
    _design(sim, top, log, clocks, sig, event)

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
    )


@pytest.mark.parametrize(
    "runs, digest",
    [
        (
            [(3_000, False)],
            "eb4465506b4dc55b24c71bbfdc902f94117007a1e3b51958d9a6a805a7b34c49",
        ),
        (
            # runs that end on until and on the stop event
            [(451, False), (1, False), (2_000, True), (777, False)],
            "6ae52be23a1790af219188e92d223254a703823a040636de4355535cecc84197",
        ),
    ],
    ids=["one_run", "stops"],
)
def test_window_changes_nothing_observable(runs, digest):
    observed = _observe(runs)
    assert hashlib.sha256(repr(observed).encode()).hexdigest() == digest
