"""Unit tests for the delta-cycle scheduler, processes and triggers."""

import io

import pytest

from repro.kernel import (
    Clock,
    DeltaOverflowError,
    Edge,
    Event,
    First,
    MHz,
    Module,
    ProcessError,
    RisingEdge,
    Signal,
    SimulationError,
    Simulator,
    Timer,
    VcdWriter,
    xbits,
)


def test_timer_sequencing():
    sim = Simulator()
    log = []

    def proc():
        log.append(sim.time)
        yield Timer(10)
        log.append(sim.time)
        yield Timer(5)
        log.append(sim.time)

    sim.fork(proc())
    sim.run()
    assert log == [0, 10, 15]


def test_two_processes_interleave():
    sim = Simulator()
    log = []

    def a():
        yield Timer(10)
        log.append("a10")
        yield Timer(20)
        log.append("a30")

    def b():
        yield Timer(15)
        log.append("b15")
        yield Timer(5)
        log.append("b20")

    sim.fork(a())
    sim.fork(b())
    sim.run()
    assert log == ["a10", "b15", "b20", "a30"]


def test_run_until_pauses_and_resumes():
    sim = Simulator()
    log = []

    def proc():
        while True:
            yield Timer(10)
            log.append(sim.time)

    sim.fork(proc())
    sim.run(until=25)
    assert log == [10, 20]
    assert sim.time == 25
    sim.run_for(10)
    assert log == [10, 20, 30]


def test_run_until_past_time_rejected():
    sim = Simulator()

    def proc():
        yield Timer(100)

    sim.fork(proc())
    sim.run(until=50)
    with pytest.raises(SimulationError):
        sim.run(until=20)


def test_nonblocking_update_semantics():
    """A write is not visible until the following delta cycle."""
    sim = Simulator()
    sig = Signal("s", 8, init=0)
    sim.register_signal(sig)
    seen = []

    def writer():
        sig.next = 42
        seen.append(sig.value)  # still old value in same delta
        yield Edge(sig)  # resumes in the delta after the commit
        seen.append(sig.value)

    sim.fork(writer())
    sim.run()
    assert seen == [0, 42]


def test_last_write_wins_within_delta():
    sim = Simulator()
    sig = Signal("s", 8, init=0)
    sim.register_signal(sig)

    def writer():
        sig.next = 1
        sig.next = 2
        yield Edge(sig)

    sim.fork(writer())
    sim.run()
    assert sig.value == 2
    assert sim.stats.value_changes == 1  # only one committed change


def test_rising_edge_trigger():
    sim = Simulator()
    sig = Signal("s", 1, init=0)
    sim.register_signal(sig)
    hits = []

    def waiter():
        while True:
            yield RisingEdge(sig)
            hits.append(sim.time)

    def driver():
        yield Timer(10)
        sig.next = 1
        yield Timer(10)
        sig.next = 0
        yield Timer(10)
        sig.next = 1

    sim.fork(waiter())
    sim.fork(driver())
    sim.run()
    assert hits == [10, 30]


def test_edge_on_x_transition_counts_as_change_not_rise():
    """0 -> X must not fire a rising edge; X -> 1 must."""
    from repro.kernel import xbits

    sim = Simulator()
    sig = Signal("s", 1, init=0)
    sim.register_signal(sig)
    rises = []

    def waiter():
        while True:
            yield RisingEdge(sig)
            rises.append(sim.time)

    def driver():
        yield Timer(10)
        sig.next = xbits(1)
        yield Timer(10)
        sig.next = 1

    sim.fork(waiter())
    sim.fork(driver())
    sim.run()
    assert rises == [20]


def test_no_spurious_trigger_on_equal_write():
    sim = Simulator()
    sig = Signal("s", 1, init=0)
    sim.register_signal(sig)
    hits = []

    def waiter():
        while True:
            yield RisingEdge(sig)
            hits.append(sim.time)

    def driver():
        yield Timer(10)
        sig.next = 0  # no change
        yield Timer(10)
        sig.next = 1

    sim.fork(waiter())
    sim.fork(driver())
    sim.run()
    assert hits == [20]
    assert sim.stats.value_changes == 1


def test_first_trigger_timeout_path():
    sim = Simulator()
    sig = Signal("irq", 1, init=0)
    sim.register_signal(sig)
    outcome = []

    def waiter():
        fired = yield First(RisingEdge(sig), Timer(100))
        outcome.append(type(fired).__name__)

    sim.fork(waiter())
    sim.run()
    assert outcome == ["Timer"]


def test_first_trigger_edge_path():
    sim = Simulator()
    sig = Signal("irq", 1, init=0)
    sim.register_signal(sig)
    outcome = []

    def waiter():
        fired = yield First(RisingEdge(sig), Timer(100))
        outcome.append(type(fired).__name__)
        outcome.append(sim.time)

    def driver():
        yield Timer(30)
        sig.next = 1

    sim.fork(waiter())
    sim.fork(driver())
    sim.run()
    assert outcome == ["RisingEdge", 30]


def test_first_does_not_leak_edge_waiters():
    """Losing edge triggers must be disarmed (polling-loop hygiene)."""
    sim = Simulator()
    sig = Signal("irq", 1, init=0)
    sim.register_signal(sig)

    def waiter():
        for _ in range(50):
            yield First(RisingEdge(sig), Timer(10))

    sim.fork(waiter())
    sim.run()
    assert len(sig._w_rise) == 0


def test_join_and_fork_result():
    """A parent joins a forked child through an Event the child sets;
    by then the child's return value is its ``result``."""
    sim = Simulator()
    results = []
    done = Event("child_done")

    def child():
        yield Timer(25)
        done.set(sim)
        return 99

    def parent():
        proc = sim.fork(child(), "child")
        yield done.wait()
        results.append((sim.time, proc.result))

    sim.fork(parent())
    sim.run()
    assert results == [(25, 99)]


def test_yield_process_is_error():
    """A Process is not a trigger: yielding one fails the parent with a
    TypeError, reported as a ProcessError from the run."""
    sim = Simulator()
    done = []

    def child():
        yield Timer(5)
        done.append(sim.time)

    def parent():
        yield sim.fork(child(), "child")
        done.append("parent resumed")  # pragma: no cover

    par = sim.fork(parent(), "parent")
    with pytest.raises(ProcessError) as exc_info:
        sim.run()
    assert exc_info.value.process is par
    assert isinstance(exc_info.value.original, TypeError)
    assert "yielded Process('child'" in str(exc_info.value.original)
    assert par.finished
    assert sim.time == 0 and done == []
    sim.run()  # the child is unaffected
    assert done == [5]


def test_event_wait_and_set():
    sim = Simulator()
    ev = Event("go")
    log = []

    def waiter():
        yield ev.wait()
        log.append(("woke", sim.time, ev.data))

    def setter():
        yield Timer(40)
        ev.set(sim, data="payload")

    sim.fork(waiter())
    sim.fork(setter())
    sim.run()
    assert log == [("woke", 40, "payload")]


def test_event_wakes_all_waiters():
    sim = Simulator()
    ev = Event("go")
    woke = []

    def waiter(i):
        yield ev.wait()
        woke.append(i)

    for i in range(3):
        sim.fork(waiter(i))

    def setter():
        yield Timer(1)
        ev.set(sim)

    sim.fork(setter())
    sim.run()
    assert sorted(woke) == [0, 1, 2]


def test_run_until_event():
    sim = Simulator()
    ev = Event("done")

    def proc():
        yield Timer(500)
        ev.set(sim)
        yield Timer(500)

    sim.fork(proc())
    assert sim.run_until_event(ev, timeout=1000)
    assert sim.time == 500


def test_run_until_event_timeout():
    sim = Simulator()
    ev = Event("never")

    def proc():
        while True:
            yield Timer(100)

    sim.fork(proc())
    assert not sim.run_until_event(ev, timeout=1000)
    assert sim.time == 1000


def test_process_exception_surfaces():
    sim = Simulator()

    def bad():
        yield Timer(10)
        raise ValueError("boom")

    sim.fork(bad(), "bad")
    with pytest.raises(ProcessError) as exc_info:
        sim.run()
    assert isinstance(exc_info.value.original, ValueError)


def test_process_yield_garbage_is_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.fork(bad(), "bad")
    with pytest.raises(ProcessError):
        sim.run()


def test_process_kill():
    sim = Simulator()
    log = []

    def victim():
        while True:
            yield Timer(10)
            log.append(sim.time)

    def killer(proc):
        yield Timer(35)
        proc.kill()

    p = sim.fork(victim())
    sim.fork(killer(p))
    sim.run()
    assert log == [10, 20, 30]
    assert p.finished


def test_delta_overflow_detection():
    """A zero-delay combinational loop must be caught, not spin forever."""
    sim = Simulator()
    x = Signal("x", 1, init=0)
    sim.register_signal(x)

    def oscillate():
        while True:
            yield Edge(x)
            x.next = 0 if x.value else 1

    def kick():
        x.next = 1
        yield Timer(1)

    sim.fork(oscillate())
    sim.fork(kick())
    with pytest.raises(DeltaOverflowError):
        sim.run()


def test_clock_cycles_and_frequency():
    sim = Simulator()
    clk = Clock("clk100", period=MHz(100))
    sim.add_module(clk)
    edges = []

    def counter():
        while True:
            yield RisingEdge(clk.out)
            edges.append(sim.time)

    sim.fork(counter())
    sim.run(until=100_000)  # 100ns = 10 cycles at 100MHz
    assert len(edges) == 10
    # edges evenly spaced by the period
    assert edges[1] - edges[0] == MHz(100)


def test_activity_accounting_by_owner():
    sim = Simulator()
    top = Module("top")
    busy = Module("busy", parent=top)
    idle = Module("idle", parent=top)
    sig_busy = busy.signal("s", 8)
    sig_idle = idle.signal("s", 8)

    def busy_proc():
        for i in range(100):
            sig_busy.next = i
            yield Timer(10)

    def idle_proc():
        sig_idle.next = 1
        yield Timer(1000)

    busy.process(lambda: busy_proc(), "busy")
    idle.process(lambda: idle_proc(), "idle")
    sim.add_module(top)
    sim.run()
    assert busy.activity()["events"] > idle.activity()["events"]
    assert top.activity()["events"] == (
        busy.activity()["events"] + idle.activity()["events"]
    )


def test_module_hierarchy_paths_and_find():
    top = Module("top")
    a = Module("a", parent=top)
    b = Module("b", parent=a)
    assert b.path == "top.a.b"
    assert top.children == [a] and a.children == [b]
    assert b.parent is a


# ----------------------------------------------------------------------
# One schedule behind every entry point
# ----------------------------------------------------------------------
#: the mixed design's horizon: a coincident edge of both clocks
SCHEDULE_T = 400


def _mixed_design(profile=False):
    """Two clocks with coincident edges, a Timer process, an Edge watcher
    and a ``First``, all owned by modules; ``done`` fires at SCHEDULE_T."""
    sim = Simulator(profile=profile)
    top = Module("top")
    fast = Clock("fast", 10, parent=top)
    slow = Clock("slow", 40, parent=top)
    logic = Module("logic", parent=top)
    count = logic.signal("count", 8)
    seen = logic.signal("seen", 8)
    done = Event("done")

    def counter():
        while True:
            yield RisingEdge(fast.out)
            count.next = (count.value + 1) & 0xFF

    def watcher():
        while True:
            yield Edge(count)
            seen.next = count.value

    def racer():
        while True:
            yield First(RisingEdge(slow.out), Timer(7))

    def pacer():
        for _ in range(SCHEDULE_T // 25):
            yield Timer(25)
        done.set(sim)
        while True:
            yield Timer(25)

    for fn in (counter, watcher, racer, pacer):
        logic.process(fn)
    sim.add_module(top)
    return sim, done


def _schedule(stats):
    def by_path(m):
        return {o.path: n for o, n in m.items() if n}

    return (
        stats.resumes,
        stats.value_changes,
        stats.deltas,
        stats.timesteps,
        by_path(stats.resumes_by_owner),
        by_path(stats.changes_by_owner),
    )


def test_entry_points_run_one_schedule():
    ran, _ = _mixed_design()
    assert ran.run(until=SCHEDULE_T) == SCHEDULE_T

    evented, done = _mixed_design()
    assert evented.run_until_event(done)
    assert evented.time == SCHEDULE_T

    profiled, _ = _mixed_design(profile=True)
    profiled.run(until=SCHEDULE_T)

    expected = _schedule(ran.stats)
    assert expected[0] > 0 and expected[2] > 0
    assert _schedule(evented.stats) == expected
    assert _schedule(profiled.stats) == expected
    assert profiled.stats.elapsed_ns_by_owner
    assert not ran.stats.elapsed_ns_by_owner


def test_run_until_event_surfaces_process_error_with_resume_counted():
    sim = Simulator()

    def bad():
        yield Timer(10)
        raise ValueError("boom")

    sim.fork(bad(), "bad")
    with pytest.raises(ProcessError) as exc_info:
        sim.run_until_event(Event("never"))
    assert isinstance(exc_info.value.original, ValueError)
    # the first resume started the process; the raising one counts too
    assert sim.stats.resumes == 2


def test_run_until_event_detects_delta_overflow():
    sim = Simulator()
    x = Signal("x", 1, init=0)
    sim.register_signal(x)

    def oscillate():
        while True:
            yield Edge(x)
            x.next = 0 if x.value else 1

    def kick():
        x.next = 1
        yield Timer(1)

    sim.fork(oscillate())
    sim.fork(kick())
    with pytest.raises(DeltaOverflowError):
        sim.run_until_event(Event("never"))


@pytest.mark.parametrize("backend", ["interp", "codegen"])
def test_run_until_event_rejects_negative_timeout(backend):
    """A negative timeout must not move simulated time backwards."""
    sim = Simulator(backend=backend)

    def tick():
        while True:
            yield Timer(100)

    sim.fork(tick())
    sim.run(until=500)
    with pytest.raises(SimulationError):
        sim.run_until_event(Event("never"), timeout=-300)
    assert sim.time == 500


# ----------------------------------------------------------------------
# Silent clock edges: unobserved toggles skip the delta loop
# ----------------------------------------------------------------------
def _signal_values(top):
    return {
        f"{mod.path}.{sig.name}": sig.value
        for mod in top.iter_tree()
        for sig in mod.signals
    }


def _silent_vs_full(build, until=SCHEDULE_T):
    """Run ``build()`` as is and with a VCD writer tracing every clock
    (which forces every edge through the delta loop); return both."""
    runs = []
    for traced in (False, True):
        sim, top, clocks = build()
        if traced:
            writer = VcdWriter(io.StringIO())
            writer.trace(*(clock.out for clock in clocks))
            sim.attach_vcd(writer)
        sim.run(until=until)
        runs.append((
            sim.time,
            _schedule(sim.stats),
            _signal_values(top),
            sim.stats.silent_timesteps,
        ))
    return runs


def _mixed_design_parts():
    sim, _ = _mixed_design()
    top = sim._modules[0]
    fast, slow = top.children[:2]
    return sim, top, [fast, slow]


def test_silent_edges_keep_every_counter():
    silent, full = _silent_vs_full(_mixed_design_parts)
    assert silent[:3] == full[:3]
    assert full[3] == 0
    assert silent[3] > 0  # e.g. the fast clock's unwatched falling edges


def test_forced_x_clock_takes_the_four_state_path():
    def build(force):
        sim, top, clocks = _mixed_design_parts()
        sim.run(until=7)  # past the fast clock's first rise
        if force:
            clocks[0].out.next = xbits(1)  # its falling edge at 10 is unwatched
        return sim, top, clocks

    silent, full = _silent_vs_full(lambda: build(True))
    assert silent[:3] == full[:3]
    unforced = _silent_vs_full(lambda: build(False))[0]
    # the X -> 0 commit at 10 takes the delta loop; every other step is
    # silent exactly as without the force
    assert silent[3] == unforced[3] - 1


def test_processless_clock_runs_one_delta_loop():
    sim = Simulator()
    clk = Clock("clk", 10)
    sim.add_module(clk)
    calls = [0]
    step = sim._step_deltas

    def counted():
        calls[0] += 1
        step()

    sim._step_deltas = counted
    sim.run(until=1000)
    assert calls[0] == 1  # the settle before the first timestep
    assert sim.stats.silent_timesteps == 200
    assert sim.stats.deltas == 200  # the initial settle had nothing to do
    assert sim.stats.changes_by_owner[clk] == 200


def test_vcd_attached_mid_run_records_every_edge():
    sim = Simulator()
    clk = Clock("clk", 10)
    sim.add_module(clk)
    sim.run(until=100)
    stream = io.StringIO()
    writer = VcdWriter(stream)
    writer.trace(clk.out)
    sim.attach_vcd(writer)
    sim.run(until=200)
    assert writer.changes_recorded == 20
    assert sim.stats.silent_timesteps == 20  # only the edges before it


def test_waiter_primed_mid_run_gets_the_next_edge():
    """A rising-edge waiter primed at t=33 takes exactly the rising edges
    from 35 on out of the silent path; every falling edge stays silent."""
    sim = Simulator()
    clk = Clock("clk", 10)  # rises at 5, 15, ..., falls at 10, 20, ...
    sim.add_module(clk)
    seen = []

    def late():
        yield Timer(33)
        while True:
            yield RisingEdge(clk.out)
            seen.append(sim.time)

    sim.fork(late())
    sim.run(until=100)
    assert seen == [35, 45, 55, 65, 75, 85, 95]
    # 20 edges by t=100: the 7 watched rises take the delta loop
    assert sim.stats.changes_by_owner[clk] == 20
    assert sim.stats.silent_timesteps == 20 - 7
    assert sim.stats.timesteps == 1 + 20 + 1  # settle, edges, the Timer
