"""Tests for the PLB arbitrated system bus."""

import pytest

from repro.bus import BusProtocolError, PlbBus, PlbMemory
from repro.kernel import Clock, Edge, LogicVector, MHz, Module, Simulator


def make_system(n_masters=1, mem_kb=16, arbitrated=True):
    sim = Simulator()
    top = Module("top")
    clk = Clock("clk", MHz(100), parent=top)
    bus = PlbBus("plb", clk, parent=top)
    mem = PlbMemory("mem", mem_kb * 1024, parent=top)
    bus.attach_slave(mem, base=0x1000_0000, size=mem_kb * 1024)
    ports = [
        bus.attach_master(f"m{i}", priority=0, arbitrated=arbitrated)
        for i in range(n_masters)
    ]
    sim.add_module(top)
    return sim, top, clk, bus, mem, ports


def test_single_word_write_read():
    sim, top, clk, bus, mem, (port,) = make_system()
    result = []

    def master():
        yield from port.write_burst(0x1000_0000, [0xDEADBEEF])
        (data,) = yield from port.read_burst(0x1000_0000, 1)
        result.append(data)

    sim.fork(master())
    sim.run(until=10_000_000)
    assert result == [0xDEADBEEF]
    assert mem.words[0] == 0xDEADBEEF


def test_burst_write_read():
    sim, top, clk, bus, mem, (port,) = make_system()
    result = []

    def master():
        yield from port.write_burst(0x1000_0100, list(range(16)))
        words = yield from port.read_burst(0x1000_0100, 16)
        result.append(words)

    sim.fork(master())
    sim.run(until=10_000_000)
    assert result[0] == list(range(16))


def test_burst_limit_enforced():
    sim, top, clk, bus, mem, (port,) = make_system()
    errors = []

    def master():
        try:
            yield from port.read_burst(0x1000_0000, 17)
        except BusProtocolError as e:
            errors.append(str(e))

    sim.fork(master())
    sim.run(until=1_000_000)
    assert errors and "17" in errors[0]


def test_unaligned_address_rejected():
    sim, top, clk, bus, mem, (port,) = make_system()
    errors = []

    def master():
        try:
            yield from port.read_burst(0x1000_0002, 1)
        except BusProtocolError:
            errors.append("unaligned")

    sim.fork(master())
    sim.run(until=1_000_000)
    assert errors == ["unaligned"]


def test_decode_failure_counts_protocol_error_and_returns_x():
    sim, top, clk, bus, mem, (port,) = make_system()
    result = []

    def master():
        (data,) = yield from port.read_burst(0x9000_0000, 1)
        result.append(data)

    sim.fork(master())
    sim.run(until=1_000_000)
    assert bus.protocol_errors == 1
    assert isinstance(result[0], LogicVector)


def test_transfer_takes_cycle_accurate_time():
    """arb(1) + addr(1) + wait(1) + 4 beats = 7 bus cycles for the burst."""
    sim, top, clk, bus, mem, (port,) = make_system()
    times = []

    def master():
        t0 = sim.time
        yield from port.read_burst(0x1000_0000, 4)
        times.append(sim.time - t0)

    sim.fork(master())
    sim.run(until=10_000_000)
    period = MHz(100)
    cycles = times[0] / period
    # allow an extra cycle of completion-event skew
    assert 6 <= cycles <= 9


def test_burst_is_faster_per_word_than_singles():
    sim, top, clk, bus, mem, (port,) = make_system()
    durations = {}

    def master():
        t0 = sim.time
        yield from port.read_burst(0x1000_0000, 16)
        durations["burst"] = sim.time - t0
        t0 = sim.time
        for i in range(16):
            yield from port.read_burst(0x1000_0000 + 4 * i, 1)
        durations["singles"] = sim.time - t0

    sim.fork(master())
    sim.run(until=100_000_000)
    assert durations["burst"] < durations["singles"] / 2


def test_two_masters_share_bandwidth_fairly():
    sim, top, clk, bus, mem, ports = make_system(n_masters=2)
    done = {}

    def master(i, port):
        for k in range(10):
            addr = 0x1000_0000 + 0x100 * i + 4 * k
            yield from port.write_burst(addr, [i * 100 + k])
        done[i] = sim.time

    for i, port in enumerate(ports):
        sim.fork(master(i, port))
    sim.run(until=100_000_000)
    assert set(done) == {0, 1}
    # both progressed: completion times within 3x of each other
    assert max(done.values()) < 3 * min(done.values())
    # all data landed
    assert mem.words[0] == 0
    assert mem.words[(0x100 + 4) // 4] == 101


def test_priority_master_wins():
    sim = Simulator()
    top = Module("top")
    clk = Clock("clk", MHz(100), parent=top)
    bus = PlbBus("plb", clk, parent=top)
    mem = PlbMemory("mem", 4096, parent=top)
    bus.attach_slave(mem, base=0, size=4096)
    lo = bus.attach_master("lo", priority=0)
    hi = bus.attach_master("hi", priority=5)
    sim.add_module(top)
    finished = []

    def flood(name, port):
        for k in range(20):
            yield from port.write_burst(4 * k, [k])
        finished.append(name)

    sim.fork(flood("lo", lo))
    sim.fork(flood("hi", hi))
    sim.run(until=100_000_000)
    assert finished[0] == "hi"


def test_unarbitrated_sole_master_works():
    """Point-to-point mode is legal on a dedicated segment (original design)."""
    sim, top, clk, bus, mem, (port,) = make_system(n_masters=1, arbitrated=False)
    result = []

    def master():
        yield from port.write_burst(0x1000_0000, [0x1234])
        (data,) = yield from port.read_burst(0x1000_0000, 1)
        result.append(data)

    sim.fork(master())
    sim.run(until=10_000_000)
    assert result == [0x1234]
    assert bus.protocol_errors == 0


def test_unarbitrated_on_shared_bus_corrupts():
    """bug.dpr.4 mechanism: p2p master on a shared segment collides."""
    sim, top, clk, bus, mem, ports = make_system(n_masters=2, arbitrated=False)
    result = []

    def master():
        yield from ports[0].write_burst(0x1000_0000, [0x1234])
        (data,) = yield from ports[0].read_burst(0x1000_0000, 1)
        result.append(data)

    sim.fork(master())
    sim.run(until=10_000_000)
    assert bus.protocol_errors >= 1
    assert isinstance(result[0], LogicVector)  # read data is corrupted
    assert mem.words[0] == 0  # write was lost


def test_overlapping_slave_mapping_rejected():
    sim, top, clk, bus, mem, ports = make_system()
    other = PlbMemory("mem2", 4096)
    with pytest.raises(ValueError):
        bus.attach_slave(other, base=0x1000_0800, size=4096)


def test_bus_signals_toggle_during_traffic():
    sim, top, clk, bus, mem, (port,) = make_system()
    changes = {}

    def count(sig):
        changes[sig] = 0
        while True:
            yield Edge(sig)
            changes[sig] += 1

    def master():
        yield from port.write_burst(0x1000_0000, [1, 2, 3, 4])

    for sig in (bus.sig_addr, bus.sig_data, bus.sig_valid):
        sim.fork(count(sig))
    sim.fork(master())
    sim.run(until=10_000_000)
    assert changes[bus.sig_addr] >= 1
    assert changes[bus.sig_data] >= 4
    assert changes[bus.sig_valid] >= 2


def test_utilization_counters():
    sim, top, clk, bus, mem, (port,) = make_system()
    done = []
    bus.add_observer(done.append)

    def master():
        yield from port.write_burst(0x1000_0000, [0] * 8)
        yield from port.read_burst(0x1000_0000, 1)

    sim.fork(master())
    sim.run(until=10_000_000)
    assert [(txn.master, txn.burst) for txn in done] == [(port, 8), (port, 1)]
    assert bus.total_beats == 9
