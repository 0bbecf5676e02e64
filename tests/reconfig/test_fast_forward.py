"""The bitstream DMA's fast-forward: when it runs, and that it changes nothing.

``Simulator._run_clocked`` runs quiet stretches of an IcapCTRL transfer
outside the kernel's timestep and delta loops.  It must be invisible: every
simulated result, kernel counter, warning and trace byte is the same as
when the kernel runs the DMA itself.  The differential cases below run
each stimulus twice, once as shipped and once with the fast-forward
never offered a window, and compare everything observable, including
runs that hand steps back to the kernel mid-window (a corrupted SimB, a
stalled fetch, a wedged transfer the watchdog aborts, odd clock ratios
whose edges coincide irregularly, a DMA step that posts a timed entry,
forks a process or waits on a trigger the window does not own), and
runs in which it resumes more than the DMA: another process on the bus
clock, a third clock with a process of its own, and profile mode.  The
counters the fast-forward keeps
tell when it ran; only counts are asserted, never wall time.
"""

import io
import random
from dataclasses import replace

import pytest

from repro.analysis.tracing import to_chrome_trace
from repro.kernel import Clock, Edge, Event, ProcessError, RisingEdge, Timer, VcdWriter
from repro.reconfig.icapctrl import IcapCtrl
from repro.system.scenarios import scenario
from repro.verif import run_system
from repro.verif.transients import TRANSIENTS

from .test_machinery import MachineryBench

#: mid-way through the first reconfiguration of a 512-word ``tiny`` run
MID_DPR_PS = 33_000_000


def _run(config, frames=1, prepare=None):
    captured = {}

    def hook(system, software, sim):
        captured.update(system=system, software=software, sim=sim)
        if prepare is not None:
            prepare(system, software, sim)

    result = run_system(config, frames, prepare=hook)
    return result, captured


def _observed(result, captured):
    """Everything a run shows, fast-forward counters aside."""
    system, sim = captured["system"], captured["sim"]
    st = sim.stats
    ctrl = system.icapctrl
    out = dict(
        sim_time_ps=sim.time,
        stats=(
            st.resumes,
            st.value_changes,
            st.deltas,
            st.timesteps,
            st.silent_timesteps,
        ),
        resumes_by_owner={o.path: n for o, n in st.resumes_by_owner.items() if n},
        changes_by_owner={o.path: n for o, n in st.changes_by_owner.items() if n},
        dma=(ctrl.words_fetched, ctrl.words_drained, system.bus.total_beats),
        status=ctrl.peek("STATUS"),
        error_events=list(ctrl.error_events),
        warnings=list(result.warnings),
        anomalies=list(result.anomalies),
        recovery_log=list(result.recovery_log),
        phase_log=list(captured["software"].phase_log),
    )
    if system.artifacts is not None:
        out["timeline"] = [
            (r.time, r.kind, r.module_id)
            for p in system.artifacts.portals.values()
            for r in p.timeline
        ]
    if sim.tracer is not None:
        out["trace"] = to_chrome_trace(sim.tracer)
    return out


def _transient(key, at_ps, seed=7):
    def prepare(system, software, sim):
        TRANSIENTS[key].arm(system, software, sim, random.Random(seed), at_ps)

    return prepare


def _bus_waiter(at_ps, cycles):
    """Another process on the bus clock's rises for a stretch of the
    transfer: the fast-forward runs it alongside the DMA."""

    def prepare(system, software, sim):
        def waiter():
            yield Timer(at_ps)
            for _ in range(cycles):
                yield RisingEdge(system.bus_clock.out)

        sim.fork(waiter(), "bus_waiter", owner=system)

    return prepare


def _third_clock(period_ps):
    """A free-running clock of its own, with a process on its rises."""

    def prepare(system, software, sim):
        clock = Clock("clk3", period_ps)
        sim.add_module(clock)

        def waiter():
            while True:
                yield RisingEdge(clock.out)

        sim.fork(waiter(), "clk3_waiter", owner=clock)

    return prepare


CASES = {
    "tiny": (scenario("tiny"), 2, None),
    "cfg33": (scenario("tiny", simb_payload_words=512, cfg_mhz=33.0), 1, None),
    # a 110 ns config period: every drain edge lands on a bus rising
    # edge while the fetch polls the full FIFO, so the order in which
    # the two resume decides when the next burst goes out
    "cfg9.09": (
        scenario("tiny", simb_payload_words=256, cfg_mhz=100 / 11), 1, None
    ),
    "cfg77": (scenario("tiny", simb_payload_words=512, cfg_mhz=77.0), 1, None),
    "traced": (scenario("tiny", simb_payload_words=512, tracing=True), 1, None),
    "dpr.5": (
        scenario("tiny", simb_payload_words=512, faults=frozenset({"dpr.5"})),
        1,
        None,
    ),
    "bitflip": (
        scenario("tiny-ft", simb_payload_words=512),
        1,
        _transient("payload_bitflip", MID_DPR_PS),
    ),
    "truncated": (
        scenario("tiny-ft", simb_payload_words=512),
        1,
        _transient("truncated_simb", 20_000_000),
    ),
    "dma_stall": (
        scenario("tiny-ft", simb_payload_words=512),
        1,
        _transient("dma_stall", MID_DPR_PS),
    ),
    "backpressure": (
        scenario("tiny-ft", simb_payload_words=512),
        1,
        _transient("fifo_backpressure", MID_DPR_PS),
    ),
    "bus_waiter": (
        scenario("tiny", simb_payload_words=512),
        1,
        _bus_waiter(MID_DPR_PS, 300),
    ),
    "third_clock": (
        scenario("tiny", simb_payload_words=512),
        1,
        _third_clock(37_000),
    ),
    "profile": (scenario("tiny", simb_payload_words=512, profile=True), 1, None),
}


@pytest.mark.parametrize("case", list(CASES))
def test_fast_forward_changes_nothing_observable(case, monkeypatch):
    config, frames, prepare = CASES[case]
    result, captured = _run(config, frames, prepare)
    assert captured["system"].icapctrl.words_fast_forwarded > 0
    shipped = _observed(result, captured)
    monkeypatch.setattr(IcapCtrl, "_offer_window", lambda self: None)
    result, captured = _run(config, frames, prepare)
    assert captured["system"].icapctrl.words_fast_forwarded == 0
    assert shipped == _observed(result, captured)


def test_run_until_event_stops_inside_a_window(monkeypatch):
    """An event a DMA step sets ends the run on that step, as in the kernel."""

    def stop_at_a_bus_request():
        bench = MachineryBench(payload_words=256)
        bench.slot.select(bench.cie.ENGINE_ID)
        bench.start_transfer(4 * bench.load_simb(bench.me.ENGINE_ID))
        bench.sim.run(until=3_000_000)
        request = bench.bus._request
        for _ in range(5):
            assert bench.sim.run_until_event(request, timeout=1_000_000)
        st = bench.sim.stats
        return (
            bench.sim.time,
            bench.sim.delta,
            (st.resumes, st.value_changes, st.deltas, st.timesteps),
            bench.icapctrl.words_drained,
        ), bench.icapctrl.words_fast_forwarded

    shipped, carried = stop_at_a_bus_request()
    assert carried > 0
    monkeypatch.setattr(IcapCtrl, "_offer_window", lambda self: None)
    assert stop_at_a_bus_request() == (shipped, 0)


def test_a_step_that_raises_fails_the_run_as_in_the_kernel(monkeypatch):
    """A DMA step raising inside a window ends the run with the same
    error, at the same time and with the same counters."""

    def fail_at_word_200():
        bench = MachineryBench(payload_words=256)
        bench.slot.select(bench.cie.ENGINE_ID)
        bench.start_transfer(4 * bench.load_simb(bench.me.ENGINE_ID))
        write_word = bench.icap.write_word

        def faulty(word):
            if bench.icapctrl.words_drained == 200:
                raise RuntimeError("ICAP wedged")
            write_word(word)

        bench.icap.write_word = faulty
        with pytest.raises(ProcessError) as info:
            bench.sim.run(until=20_000_000)
        st = bench.sim.stats
        return (
            str(info.value),
            bench.sim.time,
            bench.sim.delta,
            (st.resumes, st.value_changes, st.deltas, st.timesteps),
            bench.icapctrl.words_fetched,
        ), bench.icapctrl.words_fast_forwarded

    shipped, carried = fail_at_word_200()
    assert carried > 0
    monkeypatch.setattr(IcapCtrl, "_offer_window", lambda self: None)
    assert fail_at_word_200() == (shipped, 0)


def _dma_only():
    """A 256-word transfer on the machinery bench, started."""
    bench = MachineryBench(payload_words=256)
    bench.slot.select(bench.cie.ENGINE_ID)
    bench.start_transfer(4 * bench.load_simb(bench.me.ENGINE_ID))
    return bench


def _settled(bench):
    """Run the transfer out: what it shows, and the words carried."""
    bench.sim.run(until=20_000_000)
    st = bench.sim.stats
    return (
        bench.sim.time,
        bench.sim.delta,
        (
            st.resumes,
            st.value_changes,
            st.deltas,
            st.timesteps,
            st.silent_timesteps,
        ),
        {o.path: n for o, n in st.resumes_by_owner.items() if n},
        {o.path: n for o, n in st.changes_by_owner.items() if n},
        bench.icapctrl.words_drained,
    ), bench.icapctrl.words_fast_forwarded


class _Mark:
    """A timed entry that logs when it fires and how far the DMA got."""

    def __init__(self, log, ctrl):
        self.log = log
        self.ctrl = ctrl

    def _fire(self, sim):
        self.log.append(("mark", sim.time, self.ctrl.words_drained))


@pytest.mark.parametrize("work", ["timed_entry", "fork"])
def test_a_step_that_makes_kernel_work_hands_back(work, monkeypatch):
    """A drained word that posts a timed entry or forks a process ends the
    window at that delta; the kernel finishes the step as it would."""

    def run():
        bench = _dma_only()
        sim = bench.sim
        write_word = bench.icap.write_word
        log = []

        def helper():
            log.append(("helper", sim.time, sim.delta))
            yield Timer(1_500)
            log.append(("helper", sim.time, sim.delta))

        def writes_and_works(word):
            write_word(word)
            if bench.icapctrl.words_drained + 1 in (100, 180):
                log.append(("write", sim.time, sim.delta))
                if work == "fork":
                    sim.fork(helper(), "helper")
                else:
                    mark = _Mark(log, bench.icapctrl)
                    assert sim._post_clocked(sim.time + 2_500, mark)

        bench.icap.write_word = writes_and_works
        observed, carried = _settled(bench)
        return (observed, log), carried

    shipped, carried = run()
    assert carried > 0
    monkeypatch.setattr(IcapCtrl, "_offer_window", lambda self: None)
    assert run() == (shipped, 0)


@pytest.mark.parametrize("wait", ["timer", "any_edge", "shared_event"])
def test_a_dma_process_waiting_on_anything_else_hands_back(wait, monkeypatch):
    """The drain pausing twice on a trigger a window does not own (a
    Timer, any edge of its clock, or an event another process waits on
    too, which a PLB beat then sets) ends the window at that delta."""
    drain = IcapCtrl._drain_proc

    def drain_with_pauses(self):
        inner = drain(self)
        pauses = [170, 90]
        sent = None
        while True:
            trig = inner.send(sent)
            if pauses and self.words_drained == pauses[-1]:
                pauses.pop()
                self.pausing = True
                if wait == "timer":
                    yield Timer(3_000)
                elif wait == "any_edge":
                    yield Edge(self.cfg_clock.out)
                else:
                    yield self.pause.wait()
                self.pausing = False
            sent = yield trig

    def run():
        bench = _dma_only()
        sim, ctrl = bench.sim, bench.icapctrl
        ctrl.pausing = False
        ctrl.pause = Event("pause")
        log = []

        def helper():
            while True:
                yield ctrl.pause.wait()
                log.append(("helper", sim.time, ctrl.words_drained))

        sim.fork(helper(), "helper")
        read = bench.mem.plb_read
        beats = []

        def read_and_count(offset):
            if ctrl.pausing:
                beats.append(offset)
                if len(beats) % 3 == 0:
                    ctrl.pause.set(sim)
            return read(offset)

        bench.mem.plb_read = read_and_count
        observed, carried = _settled(bench)
        return (observed, log), carried

    plain, _ = run()
    monkeypatch.setattr(IcapCtrl, "_drain_proc", drain_with_pauses)
    paused, carried = run()
    assert carried > 0
    assert paused != plain  # the pauses moved the schedule
    monkeypatch.setattr(IcapCtrl, "_offer_window", lambda self: None)
    assert run() == (paused, 0)


def test_default_run_carries_most_words_through_the_fast_forward():
    result, captured = _run(scenario("tiny"), 2)
    ctrl = captured["system"].icapctrl
    assert not result.detected
    assert ctrl.fast_forward_windows > 0
    assert result.words_fast_forwarded == ctrl.words_fast_forwarded
    assert result.fast_forward_windows == ctrl.fast_forward_windows
    assert 2 * ctrl.words_fast_forwarded > ctrl.words_drained


def test_tracing_does_not_turn_the_fast_forward_off():
    plain, _ = _run(scenario("tiny"), 2)
    traced, _ = _run(scenario("tiny", tracing=True), 2)
    assert plain.words_fast_forwarded > 0
    assert traced.words_fast_forwarded == plain.words_fast_forwarded
    assert traced.fast_forward_windows == plain.fast_forward_windows


def test_profile_mode_does_not_turn_the_fast_forward_off():
    config = scenario("tiny", simb_payload_words=4096)
    plain, _ = _run(config, 2)
    profiled, captured = _run(replace(config, profile=True), 2)
    assert captured["sim"].profile
    assert plain.words_fast_forwarded > 0
    assert profiled.words_fast_forwarded == plain.words_fast_forwarded
    assert profiled.fast_forward_windows == plain.fast_forward_windows


def test_a_vcd_writer_turns_the_fast_forward_off():
    def attach(system, software, sim):
        writer = VcdWriter(io.StringIO())
        writer.trace(system.bus_clock.out, scope="autovision")
        sim.attach_vcd(writer)

    result, captured = _run(scenario("tiny"), 2, attach)
    assert not result.detected
    assert captured["system"].icapctrl.words_drained > 0
    assert result.words_fast_forwarded == 0
    assert result.fast_forward_windows == 0


def test_a_point_to_point_port_turns_the_fast_forward_off():
    result, _ = _run(scenario("tiny", faults=frozenset({"dpr.4"})), 1)
    assert result.words_fast_forwarded == 0
