"""Clock scheduling: one pending edge per clock in the timed queue.

Each free-running :class:`Clock` keeps exactly one of its two edge
objects in ``Simulator._timed``; firing it posts the other one.  These
tests pin what that scheduling promises: the queue holds one edge per
clock, coincident edges commit in the order their clocks last fired,
and edges land exactly where :meth:`Clock.rises_at` says, long after
the first few cycles.
"""

import io

import pytest

from repro.kernel import MHz, Clock, Module, RisingEdge, Simulator, Timer, VcdWriter
from repro.kernel.clock import _ClockEdge

BACKENDS = ["interp", "codegen"]


def _two_clocks(backend="interp"):
    """A 100 MHz ``bus`` clock and a 50 MHz ``cfg`` clock, bus first."""
    sim = Simulator(backend=backend)
    top = Module("top")
    bus = Clock("bus", MHz(100), parent=top)
    cfg = Clock("cfg", MHz(50), parent=top)
    return sim, top, bus, cfg


def _next_edge_after(clock, t0, t):
    """Time of ``clock``'s first edge strictly after ``t`` (even period)."""
    half = clock.period // 2
    return t0 + ((t - t0) // half + 1) * half


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("until", [1_000_000, 1_234_567])
def test_timed_queue_holds_one_edge_per_clock(backend, until):
    sim, top, bus, cfg = _two_clocks(backend)

    def ticker():
        while True:
            yield Timer(3_333)

    top.process(ticker)
    sim.add_module(top)
    sim.run(until=until)
    edges = [
        (when, trig) for when, _, trig in sim._timed
        if isinstance(trig, _ClockEdge)
    ]
    assert sorted(trig.clock.name for _, trig in edges) == ["bus", "cfg"]
    for when, trig in edges:
        assert when == _next_edge_after(trig.clock, 0, until)
    # the ticker's own timer is the only other entry
    assert len(sim._timed) == 3


def _vcd_steps(text):
    """``[(time, [id, ...])]`` in file order, after the initial dump."""
    body = text.split("$enddefinitions $end", 1)[1]
    steps = []
    for line in body.splitlines():
        if line.startswith("#"):
            steps.append((int(line[1:]), []))
        elif steps and line and line[0] in "01xz":
            steps[-1][1].append(line[1:])
    return steps


def test_coincident_edges_commit_in_the_order_their_clocks_last_fired():
    sim, top, bus, cfg = _two_clocks()
    sim.add_module(top)
    stream = io.StringIO()
    writer = VcdWriter(stream)
    writer.trace(bus.out, cfg.out)
    sim.attach_vcd(writer)
    sim.run(until=2_000_000)
    coincident = [
        (t, ids) for t, ids in _vcd_steps(stream.getvalue()) if len(ids) == 2
    ]
    # every cfg edge lands on a bus edge, from 10 ns on
    assert [t for t, _ in coincident] == list(range(10_000, 2_000_001, 10_000))
    # cfg's previous edge (half a cfg period back) fired before bus's
    # (half a bus period back), so cfg commits first at every one
    order = [cfg.out._vcd_id, bus.out._vcd_id]
    assert all(ids == order for _, ids in coincident)


@pytest.mark.parametrize("backend", BACKENDS)
def test_edges_stay_on_the_predicted_grid_past_many_cycles(backend):
    sim = Simulator(backend=backend)
    early = Clock("early", 10, start_high=True)
    sim.add_module(early)
    rises = {"early": [], "late": []}

    def watch(clock):
        while True:
            yield RisingEdge(clock.out)
            rises[clock.name].append(sim.time)

    sim.fork(watch(early))
    sim.run(until=1_003)
    late = Clock("late", 7)  # odd period: 4 ps low, then 3 ps high
    sim.add_module(late)
    sim.fork(watch(late))
    until = 1_003 + 250 * late.period + 2
    sim.run(until=until)

    for clock, t0 in ((early, 0), (late, 1_003)):
        predicted = [t for t in range(until + 1) if clock.rises_at(t)]
        assert rises[clock.name] == predicted
        assert len(predicted) > 200
        assert clock.cycles == (until - t0) // clock.period
    # early starts high: its first rise ends its first full cycle
    assert rises["early"][0] == early.period
    assert rises["late"][0] == 1_003 + late.other_half
