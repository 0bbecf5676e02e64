"""Edge-case tests for the kernel: clocks, modules, events, signals."""

import pytest

from repro.kernel import (
    Clock,
    Edge,
    ElaborationError,
    Event,
    First,
    LogicVector,
    MHz,
    Module,
    RisingEdge,
    Signal,
    SignalWriteError,
    Simulator,
    Timer,
    xbits,
)


class TestClock:
    def test_start_high_phase(self):
        sim = Simulator()
        clk = Clock("clk", 10_000, start_high=True)
        sim.add_module(clk)
        assert clk.out.value == 1
        sim.run(until=6_000)
        assert clk.out.value == 0

    def test_odd_period_split(self):
        sim = Simulator()
        clk = Clock("clk", 7)  # 3 + 4
        sim.add_module(clk)
        edges = []

        def count():
            for _ in range(4):
                yield RisingEdge(clk.out)
                edges.append(sim.time)

        sim.fork(count())
        sim.run(until=50)
        assert edges[1] - edges[0] == 7

    def test_cycles_counter(self):
        sim = Simulator()
        clk = Clock("clk", MHz(100))
        sim.add_module(clk)
        sim.run(until=105_000)
        assert clk.cycles == 10

    def test_tiny_period_rejected(self):
        with pytest.raises(ValueError):
            Clock("clk", 1)


class TestModule:
    def test_double_elaboration_same_sim_is_noop(self):
        sim = Simulator()
        top = Module("top")
        sim.add_module(top)
        top._elaborate(sim)  # idempotent

    def test_elaboration_into_second_sim_rejected(self):
        sim1, sim2 = Simulator(), Simulator()
        top = Module("top")
        sim1.add_module(top)
        with pytest.raises(ElaborationError):
            sim2.add_module(top)

    def test_late_child_and_signal_after_elaboration(self):
        sim = Simulator()
        top = Module("top")
        sim.add_module(top)
        late = Module("late", parent=top)
        sim.add_module(late)
        assert late.path == "top.late"
        sig = late.signal("s", 4)
        assert sig._sim is sim  # bound on creation

    def test_late_process_starts_immediately(self):
        sim = Simulator()
        top = Module("top")
        sim.add_module(top)
        ran = []

        def proc():
            ran.append(sim.time)
            yield Timer(1)

        top.process(lambda: proc(), "late")
        sim.run_for(100)
        assert ran == [0]

    def test_iter_tree_depth_first(self):
        top = Module("t")
        a = Module("a", parent=top)
        b = Module("b", parent=a)
        c = Module("c", parent=top)
        assert [m.name for m in top.iter_tree()] == ["t", "a", "b", "c"]


class TestSignals:
    def test_width_mismatch_write_rejected(self):
        sig = Signal("s", 4)
        with pytest.raises(SignalWriteError):
            sig.next = 0x10

    def test_wider_vector_with_zero_top_bits_ok(self):
        sig = Signal("s", 4)
        sig.next = LogicVector(8, 0x5)  # top bits zero: resizable
        assert sig.value == 5

    def test_negative_int_wraps(self):
        sig = Signal("s", 8)
        sig.next = -1
        assert sig.value == 0xFF

    def test_unelaborated_next_applies_immediately(self):
        sig = Signal("s", 8)
        sig.next = 7
        assert sig.value == 7

    def test_is_high_is_low_with_x(self):
        sig = Signal("s", 1, init=0)
        sig.next = xbits(1)
        assert not sig.is_high and sig.value != 0
        assert sig.value == xbits(1)


class TestEventsAndTriggers:
    def test_event_rearm_after_fire(self):
        sim = Simulator()
        ev = Event("e")
        hits = []

        def waiter():
            for _ in range(3):
                yield ev.wait()
                hits.append(sim.time)

        def setter():
            for t in (10, 20, 30):
                yield Timer(10)
                ev.set(sim)

        sim.fork(waiter())
        sim.fork(setter())
        sim.run()
        assert hits == [10, 20, 30]
        assert ev.fired_count == 3

    def test_first_with_two_timers(self):
        sim = Simulator()
        out = []

        def proc():
            fired = yield First(Timer(100), Timer(50))
            out.append((sim.time, fired.delay))

        sim.fork(proc())
        sim.run()
        assert out == [(50, 50)]

    def test_first_requires_triggers(self):
        with pytest.raises(ValueError):
            First()

    def test_timer_zero_fires_in_next_step(self):
        sim = Simulator()
        out = []

        def proc():
            yield Timer(0)
            out.append(sim.time)

        sim.fork(proc())
        sim.run()
        assert out == [0]

    def test_negative_timer_rejected(self):
        with pytest.raises(ValueError):
            Timer(-1)

    def test_edge_on_vector_fires_on_any_bit(self):
        sim = Simulator()
        sig = Signal("s", 8, init=0)
        sim.register_signal(sig)
        hits = []

        def watcher():
            while True:
                yield Edge(sig)
                hits.append(sig.value)

        def writer():
            for v in (1, 0x80, 0x80, 0xFF):
                yield Timer(10)
                sig.next = v

        sim.fork(watcher())
        sim.fork(writer())
        sim.run()
        assert hits == [1, 0x80, 0xFF]


class TestSimulatorMisc:
    def test_repr(self):
        sim = Simulator()
        assert "Simulator" in repr(sim)

    def test_run_with_no_events_respects_until(self):
        sim = Simulator()
        sim.run(until=500)
        assert sim.time == 500


class TestKillSemantics:
    def test_kill_is_idempotent(self):
        from repro.kernel import Simulator, Timer

        sim = Simulator()

        def victim():
            yield Timer(100)

        p = sim.fork(victim())
        p.kill()
        p.kill()
        assert p.finished
