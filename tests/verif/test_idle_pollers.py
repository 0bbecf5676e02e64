"""Poll-vs-sleep differential for the two idle-hardware pollers.

The interrupt controller's scan and IcapCTRL's drain sleep while their
hardware is idle instead of resuming on every clock edge.  The
subclasses below keep the every-cycle bodies they replace as the
reference.  Each test runs the same stimulus with the pollers and with
the sleepers and requires identical observables: the fuzz differential's
side JSON, a trace taken at every bus-clock rising edge, and directed
corner cases of the wake-up rules.
"""

import numpy as np
import pytest

import repro.system.autovision as autovision
from repro.analysis.reporting import canonical_json
from repro.bus import DcrBus, InterruptController
from repro.kernel import (
    Clock,
    MHz,
    Module,
    RisingEdge,
    Simulator,
    Timer,
    xbits,
)
from repro.reconfig import IcapCtrl, build_simb
from repro.system.scenarios import scenario
from repro.verif import run_system
from repro.verif.fuzz import ScenarioGenerator, _run_side, _side_json
from repro.verif.shrink import SHRINK_ORDER, _field_candidates

from ..reconfig import test_machinery
from ..reconfig.test_machinery import BITSTREAM_BASE, RR_ID


class PollingInterruptController(InterruptController):
    """The scan that latches request lines on every bus rising edge."""

    def _catch_up(self) -> None:
        pass  # the polling scan has always latched the edge already

    def _scan(self):
        edge = RisingEdge(self.clock.out)
        sources = self._sources
        names = self._index_names
        raised_by_source = self.raised_by_source
        regs = self._regs
        isr = self._names["ISR"]
        irq = self.irq
        while True:
            yield edge
            pending = self._pending
            for i, sig in enumerate(sources):
                v = sig._value
                if v.xmask:
                    self.x_violations += 1
                    if self.first_x_violation_at is None:
                        self.first_x_violation_at = self.sim.time
                elif v.value & 1:
                    if not pending & (1 << i):
                        self.interrupts_raised += 1
                        raised_by_source[names[i]] += 1
                        pending |= 1 << i
            self._pending = pending
            regs[isr] = pending
            want = 1 if pending & self._enabled else 0
            v = irq._value
            if v.xmask or v.value != want:
                irq.next = want


class PollingIcapCtrl(IcapCtrl):
    """The drain that resumes on every configuration-clock rising edge."""

    def _drain_proc(self):
        cfg = self.cfg_clock.out
        while True:
            yield RisingEdge(cfg)
            if self.stall_drain:
                continue
            if self._fifo:
                word = self._fifo.popleft()
                self.icap.write_word(word)
                self.words_drained += 1
                self._check_icap_errors()
                if self._fetch_done and not self._fifo:
                    if self._abort_requested:
                        continue  # the watchdog already closed this one
                    self.transfers_completed += 1
                    if self.detect_truncation and getattr(
                        self.icap, "mid_reconfiguration", False
                    ):
                        self._latch_error(
                            "transfer completed mid-reconfiguration "
                            "(truncated SimB?)"
                        )
                        resync = getattr(self.icap, "resync", None)
                        if resync is not None:
                            resync("truncated SimB")
                    self._set_status(
                        done=True, busy=False, error=self._error_latched
                    )
                    if self._transfer_span is not None:
                        self._transfer_span.add_args(
                            words_drained=self.words_drained
                            - self._span_drained0,
                            error=self._error_latched,
                        )
                        self._transfer_span.end()
                        self._transfer_span = None
                    self.done_irq.next = 1
                    yield RisingEdge(cfg)
                    yield RisingEdge(cfg)
                    self.done_irq.next = 0


@pytest.fixture
def polling(monkeypatch):
    """Returns ``use(flag)``: build systems with pollers when ``flag``."""

    def use(poll: bool) -> None:
        monkeypatch.setattr(
            autovision,
            "InterruptController",
            PollingInterruptController if poll else InterruptController,
        )
        monkeypatch.setattr(
            autovision, "IcapCtrl", PollingIcapCtrl if poll else IcapCtrl
        )
        monkeypatch.setattr(
            test_machinery, "IcapCtrl", PollingIcapCtrl if poll else IcapCtrl
        )

    return use


def _both(polling, run):
    """``run()`` with the pollers, then with the sleepers."""
    results = []
    for poll in (True, False):
        polling(poll)
        results.append(run())
    return results


# ----------------------------------------------------------------------
# Fuzz differential side JSON
# ----------------------------------------------------------------------
def _side(sc, method) -> str:
    return canonical_json(_side_json(_run_side(sc, sc.config(method))))


def _shrunk(polling, sc, method):
    """Greedily shrink a poll/sleep mismatch with the fuzz shrinker's
    candidate fields; returns the smallest scenario that still differs."""
    best = sc
    improved = True
    while improved:
        improved = False
        for name in SHRINK_ORDER:
            for candidate in _field_candidates(best, name):
                poll, sleep = _both(polling, lambda: _side(candidate, method))
                if poll != sleep:
                    best, improved = candidate, True
                    break
            if improved:
                break
    return best


# seed 2013's first four scenarios cover cfg_mhz 25/50/100, fault
# tolerance on and off, and the dma_stall, truncated_simb and
# fifo_backpressure transients
@pytest.mark.parametrize("method", ["resim", "vmux"])
@pytest.mark.parametrize("index", range(4))
def test_fuzz_side_json_identical(polling, index, method):
    sc = ScenarioGenerator(2013).scenario(index)
    poll, sleep = _both(polling, lambda: _side(sc, method))
    if poll != sleep:
        small = _shrunk(polling, sc, method)
        pytest.fail(
            f"poll and sleep differ; shrunk scenario: {small.to_json_dict()}"
        )


# ----------------------------------------------------------------------
# Per-edge trace of a whole system run
# ----------------------------------------------------------------------
def _edge_probe(clock, sample):
    """Process calling ``sample()`` at every rising edge of ``clock`` from
    the second on, in the edge's first delta: before the edge commits,
    so it sees all that the previous edge's timesteps settled to."""
    yield RisingEdge(clock.out)
    while True:
        yield Timer(clock.period)
        sample()


def _edge_trace(config, n_frames=2):
    """(time, irq, ISR, STATUS, FIFO depth, words drained) at every
    bus-clock rising edge."""
    trace = []

    def prepare(system, software, sim):
        intc, ctrl = system.intc, system.icapctrl

        def sample():
            trace.append((
                sim.time,
                intc.irq.value.to_int_or(-1),
                intc.peek("ISR"),
                ctrl.peek("STATUS"),
                len(ctrl._fifo),
                ctrl.words_drained,
            ))

        sim.fork(_edge_probe(system.bus_clock, sample), "test.edge_probe")

    result = run_system(config, n_frames, prepare=prepare)
    assert not result.hung
    return trace, result.summary()


@pytest.mark.parametrize(
    "config",
    [
        scenario("tiny"),
        scenario("tiny-ft"),
        scenario("tiny", simb_payload_words=4096),
    ],
    ids=["tiny", "tiny-ft", "tiny-4k-simb"],
)
def test_per_edge_trace_identical(polling, config):
    poll, sleep = _both(polling, lambda: _edge_trace(config))
    assert poll[1] == sleep[1]
    assert len(poll[0]) == len(sleep[0]) > 1000
    for a, b in zip(poll[0], sleep[0]):
        assert a == b


# ----------------------------------------------------------------------
# Directed interrupt-controller cases
# ----------------------------------------------------------------------
PERIOD = MHz(100)
FIRST_RISE = PERIOD // 2


class IntcBench:
    """Two request lines on an interrupt controller of class ``cls``."""

    def __init__(self, cls):
        self.sim = Simulator()
        self.top = Module("top")
        self.clk = Clock("clk", PERIOD, parent=self.top)
        self.dcr = DcrBus("dcr", self.clk, parent=self.top)
        self.intc = cls("intc", base=0x80, clock=self.clk, parent=self.top)
        self.dcr.attach(self.intc)
        self.sources = [
            self.top.signal(f"req{i}", 1, init=0) for i in range(2)
        ]
        for i, s in enumerate(self.sources):
            self.intc.connect_source(f"src{i}", s)
        self.sim.add_module(self.top)
        self.trace = []
        self.sim.fork(_edge_probe(self.clk, self._sample))

    def _sample(self):
        intc = self.intc
        self.trace.append((
            self.sim.time,
            intc.pending_mask,
            intc.irq.value.to_int_or(-1),
            intc.interrupts_raised,
            intc.x_violations,
        ))

    def observables(self):
        intc = self.intc
        return (
            self.trace,
            intc.interrupts_raised,
            dict(intc.raised_by_source),
            intc.x_violations,
            intc.first_x_violation_at,
        )


def _intc_both(stimulus, until=2_000_000):
    """Run ``stimulus(bench)`` under both scans; return both observables."""
    out = []
    for cls in (PollingInterruptController, InterruptController):
        bench = IntcBench(cls)
        stimulus(bench)
        bench.sim.run(until=until)
        out.append(bench.observables())
    return out


def test_timer_source_at_rising_edge_latches_on_that_edge():
    at = FIRST_RISE + 50 * PERIOD  # 505,000 ps, a rising edge

    def stimulus(b):
        def device():
            yield Timer(at)
            b.sources[0].next = 1
            yield Timer(3 * PERIOD)
            b.sources[0].next = 0

        b.sim.fork(device())

    poll, sleep = _intc_both(stimulus)
    assert poll == sleep
    latched = [t for t, pending, *_ in sleep[0] if pending]
    assert latched[0] == at + PERIOD  # the next edge's sample shows it


def test_source_held_x_counts_every_cycle():
    n = 7
    start = 20 * PERIOD  # a falling edge

    def stimulus(b):
        def device():
            yield Timer(start)
            b.sources[1].next = xbits(1)
            yield Timer(n * PERIOD)
            b.sources[1].next = 0

        b.sim.fork(device())

    poll, sleep = _intc_both(stimulus)
    assert poll == sleep
    assert sleep[3] == n


def test_ack_while_source_high_relatches_on_the_polling_edge():
    def stimulus(b):
        def cpu():
            yield from b.dcr.write(b.intc.addr_of("IER"), 0b11)
            yield RisingEdge(b.intc.irq)
            yield from b.dcr.write(b.intc.addr_of("ISR"), 0b01)
            for _ in range(3):
                yield RisingEdge(b.clk.out)
            b.sources[0].next = 0
            yield from b.dcr.write(b.intc.addr_of("ISR"), 0b01)

        def device():
            yield Timer(200_000)
            b.sources[0].next = 1

        b.sim.fork(cpu())
        b.sim.fork(device())

    poll, sleep = _intc_both(stimulus)
    assert poll == sleep
    assert sleep[1] == 2  # raised, acked while high, re-latched


def test_ier_write_enables_an_already_pending_source():
    def stimulus(b):
        def device():
            yield Timer(100_000)
            b.sources[1].next = 1
            yield Timer(2 * PERIOD)
            b.sources[1].next = 0

        def cpu():
            yield Timer(400_000)
            yield from b.dcr.write(b.intc.addr_of("IER"), 0b10)

        b.sim.fork(device())
        b.sim.fork(cpu())

    poll, sleep = _intc_both(stimulus)
    assert poll == sleep
    assert sleep[0][-1][2] == 1  # irq rose once IER enabled it


@pytest.mark.parametrize("at", [300_000, FIRST_RISE + 30 * PERIOD])
def test_source_connected_while_the_scan_sleeps(at):
    def stimulus(b):
        late = b.top.signal("late", 1, init=1)
        b.sim.register_signal(late)

        def wire():
            yield Timer(at)
            b.intc.connect_source("late", late)

        b.sim.fork(wire())

    poll, sleep = _intc_both(stimulus)
    assert poll == sleep
    assert sleep[2]["late"] == 1


def test_dcr_read_ahead_of_the_scan_sees_the_edge_latched():
    """A DCR read can reach the controller before the woken scan runs in
    the edge's delta; it must still see that edge latched."""
    reads = []

    def stimulus(b):
        def cpu():
            yield Timer(300_000)  # a falling edge
            b.sources[1].next = 1  # wakes the scan behind the walker
            reads.append((yield from b.dcr.read(b.intc.addr_of("ISR"))))

        b.sim.fork(cpu())

    poll, sleep = _intc_both(stimulus)
    assert poll == sleep
    assert reads == [0b10, 0b10]


def test_source_written_after_the_edge_timestep_waits_for_the_next_edge():
    """A write in a later timestep at the rising edge's time (here after
    a zero-delay Timer) is past that edge's sample."""

    def stimulus(b):
        def device():
            yield Timer(FIRST_RISE + 20 * PERIOD)
            yield Timer(0)
            b.sources[0].next = 1

        b.sim.fork(device())

    poll, sleep = _intc_both(stimulus)
    assert poll == sleep
    latched = [t for t, pending, *_ in sleep[0] if pending]
    assert latched[0] == FIRST_RISE + 22 * PERIOD  # latched at edge 21


def test_source_written_between_runs_waits_for_the_next_edge():
    outs = []
    for cls in (PollingInterruptController, InterruptController):
        bench = IntcBench(cls)
        bench.sim.run(until=FIRST_RISE + 10 * PERIOD)  # stop on an edge
        bench.sources[0].next = 1
        bench.sim.run(until=1_000_000)
        outs.append(bench.observables())
    assert outs[0] == outs[1]


# ----------------------------------------------------------------------
# Directed drain case: configuration clock as fast as the bus, and the
# point-to-point DMA whose fill lands in the drain's own delta
# ----------------------------------------------------------------------
def _drain_run(polling, poll):
    polling(poll)
    bench = test_machinery.MachineryBench(cfg_mhz=100, arbitrated=False)
    bench.slot.select(bench.cie.ENGINE_ID)
    trace = []
    ctrl = bench.icapctrl

    def sample():
        trace.append((
            bench.sim.time,
            ctrl.peek("STATUS"),
            len(ctrl._fifo),
            ctrl.words_drained,
            ctrl.words_fetched,
            ctrl.done_irq.value.to_int_or(-1),
        ))

    bench.sim.fork(_edge_probe(bench.cfg_clk, sample))
    for target in (bench.me.ENGINE_ID, bench.cie.ENGINE_ID):
        words = build_simb(RR_ID, target, 64)
        bench.mem.load_words(BITSTREAM_BASE, np.array(words, dtype=np.uint32))

        def clear():
            ctrl.clear_done()
            yield from ()

        bench.sim.fork(clear())
        bench.start_transfer(len(words) * 4)
        assert bench.run_until_done()
    bench.sim.run_for(1_000_000)
    return trace, ctrl.transfers_completed, ctrl.fifo_overflows


def test_drain_at_bus_speed_point_to_point(polling):
    poll = _drain_run(polling, True)
    sleep = _drain_run(polling, False)
    assert poll == sleep
    assert sleep[1] == 2
