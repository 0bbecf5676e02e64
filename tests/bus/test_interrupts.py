"""Tests for the interrupt controller."""

from repro.bus import DcrBus, InterruptController
from repro.kernel import Clock, MHz, Module, RisingEdge, Simulator, Timer


def make_intc(n_sources=3):
    sim = Simulator()
    top = Module("top")
    clk = Clock("clk", MHz(100), parent=top)
    dcr = DcrBus("dcr", clk, parent=top)
    intc = InterruptController("intc", base=0x80, clock=clk, parent=top)
    dcr.attach(intc)
    sources = [top.signal(f"req{i}", 1, init=0) for i in range(n_sources)]
    for i, s in enumerate(sources):
        intc.connect_source(f"src{i}", s)
    sim.add_module(top)
    return sim, top, clk, dcr, intc, sources


def test_irq_raised_when_enabled_source_fires():
    sim, top, clk, dcr, intc, sources = make_intc()
    times = {}

    def cpu():
        yield from dcr.write(intc.addr_of("IER"), 0b111)

    def device():
        yield Timer(500_000)
        sources[1].next = 1
        yield Timer(50_000)
        sources[1].next = 0

    def observer():
        yield RisingEdge(intc.irq)
        times["irq"] = sim.time

    sim.fork(cpu())
    sim.fork(device())
    sim.fork(observer())
    sim.run(until=5_000_000)
    assert times["irq"] >= 500_000


def test_masked_source_does_not_raise_irq():
    sim, top, clk, dcr, intc, sources = make_intc()

    def cpu():
        yield from dcr.write(intc.addr_of("IER"), 0b001)  # only src0

    def device():
        yield Timer(500_000)
        sources[2].next = 1

    sim.fork(cpu())
    sim.fork(device())
    sim.run(until=5_000_000)
    assert intc.irq.value == 0
    # but it is latched as pending
    assert intc.pending_mask & 0b100


def test_ack_clears_pending_and_drops_irq():
    sim, top, clk, dcr, intc, sources = make_intc()
    log = []

    def cpu():
        yield from dcr.write(intc.addr_of("IER"), 0b111)
        yield RisingEdge(intc.irq)
        pending = yield from dcr.read(intc.addr_of("ISR"))
        log.append(pending)
        sources[0].next = 0  # device deasserts
        yield from dcr.write(intc.addr_of("ISR"), pending)  # ack
        # allow a few cycles for irq to drop
        for _ in range(4):
            yield RisingEdge(clk.out)
        log.append(intc.irq.value)

    def device():
        yield Timer(300_000)
        sources[0].next = 1

    sim.fork(cpu())
    sim.fork(device())
    sim.run(until=5_000_000)
    assert log[0] == 0b001
    assert log[1] == 0


def test_vector_register_returns_lowest_active():
    sim, top, clk, dcr, intc, sources = make_intc()
    vectors = []

    def cpu():
        yield from dcr.write(intc.addr_of("IER"), 0b111)
        yield RisingEdge(intc.irq)
        v = yield from dcr.read(intc.addr_of("IVR"))
        vectors.append(v)

    def device():
        yield Timer(200_000)
        sources[2].next = 1
        sources[1].next = 1

    sim.fork(cpu())
    sim.fork(device())
    sim.run(until=5_000_000)
    assert vectors == [1]


def test_vector_register_empty_value():
    sim, top, clk, dcr, intc, sources = make_intc()
    vectors = []

    def cpu():
        yield Timer(100_000)
        v = yield from dcr.read(intc.addr_of("IVR"))
        vectors.append(v)

    sim.fork(cpu())
    sim.run(until=5_000_000)
    assert vectors == [0xFFFF_FFFF]


def test_level_sensitive_relatch_if_not_deasserted():
    """Acking while the line is still high re-latches pending."""
    sim, top, clk, dcr, intc, sources = make_intc()

    def cpu():
        yield from dcr.write(intc.addr_of("IER"), 0b1)
        yield RisingEdge(intc.irq)
        yield from dcr.write(intc.addr_of("ISR"), 0b1)  # ack w/o deassert
        for _ in range(4):
            yield RisingEdge(clk.out)

    def device():
        yield Timer(200_000)
        sources[0].next = 1  # stays high

    sim.fork(cpu())
    sim.fork(device())
    sim.run(until=5_000_000)
    assert intc.pending_mask & 1
    assert intc.irq.value == 1


def test_interrupt_counter():
    sim, top, clk, dcr, intc, sources = make_intc()

    def device():
        for _ in range(3):
            yield Timer(100_000)
            sources[0].next = 1
            yield Timer(100_000)
            sources[0].next = 0
            # ack so the next edge is counted anew
            intc._ack(0b1)

    sim.fork(device())
    sim.run(until=5_000_000)
    assert intc.interrupts_raised == 3


def test_raised_by_source_partitions_the_total():
    """Per-source raise counts must sum to interrupts_raised and be
    keyed by the connected source names."""
    sim, top, clk, dcr, intc, sources = make_intc()
    period = clk.period

    def pulse(sig, times):
        for _ in range(times):
            sig.next = 1
            yield Timer(2 * period)
            sig.next = 0
            yield Timer(2 * period)

    def cpu():
        yield from dcr.write(intc.addr_of("IER"), 0b111)
        yield from pulse(sources[0], 2)
        # acknowledge so re-raises of the same source count again
        yield from dcr.write(intc.addr_of("ISR"), 0b111)
        yield from pulse(sources[0], 1)
        yield from pulse(sources[1], 1)

    sim.fork(cpu())
    sim.run(until=period * 200)
    assert intc.raised_by_source["src0"] == 2
    assert intc.raised_by_source["src1"] == 1
    assert intc.raised_by_source["src2"] == 0
    assert sum(intc.raised_by_source.values()) == intc.interrupts_raised
