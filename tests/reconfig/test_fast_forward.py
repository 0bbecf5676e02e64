"""What IcapCTRL's bitstream DMA runs show, pinned.

Each case runs a stimulus that keeps the DMA busy: odd clock ratios
whose edges coincide irregularly, a corrupted or truncated SimB, a
stalled fetch or drain, a wedged transfer the watchdog aborts, DMA steps
that post a timed entry, fork a process or wait on a timer, any edge of
a clock or a shared event, another process on the bus clock, a third
clock with a process of its own, tracing and profile mode.  It compares
everything observable (simulated results, kernel counters, warnings,
trace bytes) with a digest or value recorded from a kernel that ran the
DMA's clock-only stretches in a loop of their own, where those stretches
were checked against the kernel's timestep loop alone.  The kernel now
has that one loop, so each pin must still hold.
"""

import hashlib
import heapq
import random

import pytest

from repro.analysis.tracing import to_chrome_trace
from repro.kernel import Clock, Edge, Event, ProcessError, RisingEdge, Timer
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


def _digest(observed) -> str:
    return hashlib.sha256(repr(observed).encode()).hexdigest()


def _observed(result, captured):
    """Everything a run shows."""
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
    transfer, resumed alongside the DMA."""

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


#: sha256 of ``_observed`` for each case
PINNED = {
    "backpressure": "3a0a60fbecae65294858a6523b3149469aea2927584c22f283185313389d05dd",
    "bitflip": "a54936d394193afc14cd0895c8cb94d3a4ebd9c871c0578fdb104213d9a519c7",
    "bus_waiter": "a384e4293acb8877640171245c7ab4dc82f84a0565f94acf511f90aa27ff6f5c",
    "cfg33": "134b6aeef85c423c74a270fef14f2a0ee56bbbf07568650b35b694cebc60dc62",
    "cfg77": "d76c0066a36d2022eeed65b689b6a473319f9a1106f2694132688f773f11610c",
    "cfg9.09": "161457e17bad52d06b73fe2fb7d2bb326cf6b5c2225d65f36880c96f4605b4c2",
    "dma_stall": "47d9989571272abe43a10ab9eeae438070a1ff6a9e8b74acd4f7967a62816d4c",
    "dpr.5": "0cd762db3a065d0508383c31e9b0955a794ab59ab74923331a179adc4f475f05",
    "profile": "268586abf41c7da6a0390d78420d40bc63776f26ff7afcd2f55a42a88af9d4bc",
    "third_clock": "c1fb65a9359622ecfaca34bc35587737c2c0d22e8115dfdcb950f1003672d20a",
    "tiny": "07b6d9cb9692863c32c4ce989ae4d6a6a76999f1b4f9b24a83c70a0fee60a288",
    "traced": "791227969d482550472a3ca4e148cba0b306c1ebfaf6708c65e2d514dc1befb5",
    "truncated": "753578cff33959ee7dbdd5e79b5b42f4896e0c3e9713d6b8535024cf93b7ca13",
}


@pytest.mark.parametrize("case", list(CASES))
def test_fast_forward_changes_nothing_observable(case):
    config, frames, prepare = CASES[case]
    result, captured = _run(config, frames, prepare)
    assert captured["system"].icapctrl.words_drained > 0
    assert _digest(_observed(result, captured)) == PINNED[case]


def _dma_only():
    """A 256-word transfer on the machinery bench, started."""
    bench = MachineryBench(payload_words=256)
    bench.slot.select(bench.cie.ENGINE_ID)
    bench.start_transfer(4 * bench.load_simb(bench.me.ENGINE_ID))
    return bench


def test_run_until_event_stops_inside_a_window():
    """An event a DMA step sets ends the run on that step."""
    bench = _dma_only()
    bench.sim.run(until=3_000_000)
    request = bench.bus._request
    for _ in range(5):
        assert bench.sim.run_until_event(request, timeout=1_000_000)
    st = bench.sim.stats
    assert (
        bench.sim.time,
        bench.sim.delta,
        (st.resumes, st.value_changes, st.deltas, st.timesteps),
        bench.icapctrl.words_drained,
    ) == (
        3_255_000,
        4,
        (603, 1459, 1242, 657),
        149,
    )


def test_a_step_that_raises_fails_the_run_as_in_the_kernel():
    """A DMA step that raises ends the run with its error, at its time
    and with its resume counted."""
    bench = _dma_only()
    write_word = bench.icap.write_word

    def faulty(word):
        if bench.icapctrl.words_drained == 200:
            raise RuntimeError("ICAP wedged")
        write_word(word)

    bench.icap.write_word = faulty
    with pytest.raises(ProcessError) as info:
        bench.sim.run(until=20_000_000)
    st = bench.sim.stats
    assert (
        str(info.value),
        bench.sim.time,
        bench.sim.delta,
        (st.resumes, st.value_changes, st.deltas, st.timesteps),
        bench.icapctrl.words_fetched,
    ) == (
        "process 'top.icapctrl.drain' raised RuntimeError('ICAP wedged')",
        4_290_000,
        2,
        (792, 1925, 1638, 859),
        213,
    )


def _settled(bench):
    """Run the transfer out: what it shows."""
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
    )


class _Mark:
    """A timed entry that logs when it fires and how far the DMA got."""

    def __init__(self, log, ctrl):
        self.log = log
        self.ctrl = ctrl

    def _fire(self, sim):
        self.log.append(("mark", sim.time, self.ctrl.words_drained))


#: sha256 of each run's ``(_settled, log)``
KERNEL_WORK = {
    "fork": "3eb5c014483846089407e2d9369136f1bdd0100151790dd997f6638c9d93cb9a",
    "timed_entry": "d55b1e983360d8d86d635e692051d6a0094d6f6c7230606acb3e9b1c05f9c954",
}


@pytest.mark.parametrize("work", ["timed_entry", "fork"])
def test_a_step_that_makes_kernel_work_hands_back(work):
    """A drained word that posts a timed entry or forks a process: the
    entry fires and the helper runs at the times they are due."""
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
                sim._seq += 1
                heapq.heappush(
                    sim._timed,
                    (sim.time + 2_500, sim._seq, _Mark(log, bench.icapctrl)),
                )

    bench.icap.write_word = writes_and_works
    assert _digest((_settled(bench), log)) == KERNEL_WORK[work]


#: sha256 of each paused run's ``(_settled, log)``
PAUSED = {
    "any_edge": "9bf16e14c9f70c1395c3814c2e9f3d73fdcae476cd9f91cdef705ee55d94fee3",
    "shared_event": "a55c5062b59ffbf33df5b5ae204120c2578a3bb72a6f273d9ca096b40609c38f",
    "timer": "fccdf32c5f6f0cda1821dfaf31d16df45df1c41e74c5042984de5448303e799e",
}


def _drain_with_pauses(wait):
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

    return drain_with_pauses


def _run_paused():
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
    return _settled(bench), log


@pytest.mark.parametrize("wait", ["timer", "any_edge", "shared_event"])
def test_a_dma_process_waiting_on_anything_else_hands_back(wait, monkeypatch):
    """The drain pausing twice on a Timer, any edge of its clock, or an
    event another process waits on too, which a PLB beat then sets."""
    plain = _run_paused()
    monkeypatch.setattr(IcapCtrl, "_drain_proc", _drain_with_pauses(wait))
    paused = _run_paused()
    assert paused != plain  # the pauses moved the schedule
    assert _digest(paused) == PAUSED[wait]
