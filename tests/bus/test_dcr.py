"""Tests for the DCR daisy-chain bus."""

import pytest

from repro.bus import DcrBus, DcrError, DcrRegisterFile
from repro.kernel import Clock, LogicVector, MHz, Module, Simulator


def make_chain(n_nodes=3):
    sim = Simulator()
    top = Module("top")
    clk = Clock("clk", MHz(100), parent=top)
    dcr = DcrBus("dcr", clk, parent=top)
    nodes = []
    for i in range(n_nodes):
        node = DcrRegisterFile(f"node{i}", base=0x100 * i, size=16, parent=top)
        node.add_register("ctrl", 0, init=0)
        node.add_register("status", 1, init=i)
        dcr.attach(node)
        nodes.append(node)
    sim.add_module(top)
    return sim, top, clk, dcr, nodes


def test_read_write_roundtrip():
    sim, top, clk, dcr, nodes = make_chain()
    result = []

    def cpu():
        yield from dcr.write(0x100, 0xCAFE)  # node1.ctrl
        val = yield from dcr.read(0x100)
        result.append(val)

    sim.fork(cpu())
    sim.run(until=10_000_000)
    assert result == [0xCAFE]
    assert nodes[1].peek("ctrl") == 0xCAFE


def test_each_node_readable():
    sim, top, clk, dcr, nodes = make_chain()
    result = []

    def cpu():
        for i in range(3):
            val = yield from dcr.read(0x100 * i + 1)  # status
            result.append(val)

    sim.fork(cpu())
    sim.run(until=10_000_000)
    assert result == [0, 1, 2]


def test_latency_scales_with_chain_length():
    """One cycle per hop: longer chains take longer per command."""
    durations = {}
    for n in (2, 6):
        sim, top, clk, dcr, nodes = make_chain(n)

        def cpu():
            t0 = sim.time
            yield from dcr.read(1)
            durations[n] = sim.time - t0

        sim.fork(cpu())
        sim.run(until=10_000_000)
    assert durations[6] > durations[2]


def test_unmapped_address_returns_x():
    sim, top, clk, dcr, nodes = make_chain()
    result = []

    def cpu():
        val = yield from dcr.read(0x999)
        result.append(val)

    sim.fork(cpu())
    sim.run(until=10_000_000)
    assert isinstance(result[0], LogicVector)


def test_corrupted_node_breaks_chain_for_downstream_reads():
    """The paper's isolation scenario: X in the ring poisons commands."""
    sim, top, clk, dcr, nodes = make_chain()
    result = []

    def cpu():
        nodes[1].set_corrupted(True)
        # node2 sits after the corruption point: unreachable
        val = yield from dcr.read(0x201)
        result.append(val)
        # node0 sits before it, but the response ring passes the break:
        val = yield from dcr.read(0x001)
        result.append(val)
        nodes[1].set_corrupted(False)
        val = yield from dcr.read(0x201)
        result.append(val)

    sim.fork(cpu())
    sim.run(until=10_000_000)
    assert isinstance(result[0], LogicVector)
    assert isinstance(result[1], LogicVector)
    assert result[2] == 2
    assert dcr.chain_break_observed >= 2


def test_corrupted_node_loses_downstream_writes():
    sim, top, clk, dcr, nodes = make_chain()

    def cpu():
        nodes[0].set_corrupted(True)
        yield from dcr.write(0x100, 0xAA)  # node1 after break: lost
        nodes[0].set_corrupted(False)
        yield from dcr.write(0x200, 0xBB)  # now fine

    sim.fork(cpu())
    sim.run(until=10_000_000)
    assert nodes[1].peek("ctrl") == 0
    assert nodes[2].peek("ctrl") == 0xBB


def test_write_before_break_point_lands():
    sim, top, clk, dcr, nodes = make_chain()

    def cpu():
        nodes[2].set_corrupted(True)
        yield from dcr.write(0x000, 0x77)  # node0 before break
        nodes[2].set_corrupted(False)

    sim.fork(cpu())
    sim.run(until=10_000_000)
    assert nodes[0].peek("ctrl") == 0x77


def test_register_callbacks():
    sim, top, clk, dcr, nodes = make_chain()
    seen = []
    nodes[0]._on_write[0] = seen.append
    counter = {"n": 0}

    def bump():
        counter["n"] += 1
        return counter["n"]

    nodes[0]._on_read[1] = bump
    result = []

    def cpu():
        yield from dcr.write(0, 5)
        a = yield from dcr.read(1)
        b = yield from dcr.read(1)
        result.extend([a, b])

    sim.fork(cpu())
    sim.run(until=10_000_000)
    assert seen == [5]
    assert result == [1, 2]


def test_overlapping_node_ranges_rejected():
    sim, top, clk, dcr, nodes = make_chain()
    bad = DcrRegisterFile("bad", base=0x105, size=16)
    with pytest.raises(ValueError):
        dcr.attach(bad)


def test_duplicate_register_offset_rejected():
    node = DcrRegisterFile("n", base=0, size=16)
    node.add_register("a", 3)
    with pytest.raises(ValueError):
        node.add_register("b", 3)


def test_register_offset_beyond_size_rejected():
    node = DcrRegisterFile("n", base=0, size=4)
    with pytest.raises(ValueError):
        node.add_register("a", 4)


def test_unknown_register_access_raises():
    node = DcrRegisterFile("n", base=0, size=16)
    node.add_register("a", 0)
    with pytest.raises(DcrError):
        node.dcr_read(5)
    with pytest.raises(DcrError):
        node.dcr_write(5, 1)


def test_addr_of_and_backdoor():
    node = DcrRegisterFile("n", base=0x40, size=16)
    node.add_register("a", 2, init=9)
    assert node.addr_of("a") == 0x42
    assert node.peek("a") == 9
    node.poke("a", 11)
    assert node.peek("a") == 11


def test_chain_order():
    sim, top, clk, dcr, nodes = make_chain()
    assert dcr.chain_order() == ["node0", "node1", "node2"]
