"""Property-based tests of the bus substrate."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.bus import DcrBus, DcrRegisterFile, PlbBus, PlbMemory
from repro.kernel import Clock, LogicVector, MHz, Module, Simulator


def make_chain(n_nodes):
    sim = Simulator()
    top = Module("top")
    clk = Clock("clk", MHz(100), parent=top)
    dcr = DcrBus("dcr", clk, parent=top)
    nodes = []
    for i in range(n_nodes):
        node = DcrRegisterFile(f"n{i}", base=0x10 * i, size=4, parent=top)
        node.add_register("R", 0, init=i + 1)
        dcr.attach(node)
        nodes.append(node)
    sim.add_module(top)
    return sim, dcr, nodes


@given(st.integers(2, 8), st.data())
@settings(max_examples=25, deadline=None)
def test_chain_break_position_determines_write_fate(n_nodes, data):
    """A write lands iff its target precedes the corruption point."""
    sim, dcr, nodes = make_chain(n_nodes)
    broken = data.draw(st.integers(0, n_nodes - 1))
    target = data.draw(st.integers(0, n_nodes - 1))
    nodes[broken].set_corrupted(True)
    results = {}

    def cpu():
        ok = yield from dcr.write(0x10 * target, 0xAB)
        results["ok"] = ok

    sim.fork(cpu())
    sim.run(until=10_000_000)
    landed = nodes[target].peek("R") == 0xAB
    assert landed == (target < broken or (target == broken and False))
    # acknowledgement is always lost once the ring is broken
    assert results["ok"] is False


@given(st.integers(2, 8), st.data())
@settings(max_examples=25, deadline=None)
def test_any_chain_break_poisons_all_reads(n_nodes, data):
    sim, dcr, nodes = make_chain(n_nodes)
    broken = data.draw(st.integers(0, n_nodes - 1))
    target = data.draw(st.integers(0, n_nodes - 1))
    nodes[broken].set_corrupted(True)
    out = {}

    def cpu():
        out["v"] = yield from dcr.read(0x10 * target)

    sim.fork(cpu())
    sim.run(until=10_000_000)
    assert isinstance(out["v"], LogicVector)


@given(st.integers(1, 8))
@settings(max_examples=15, deadline=None)
def test_healthy_chain_reads_every_node(n_nodes):
    sim, dcr, nodes = make_chain(n_nodes)
    out = []

    def cpu():
        for i in range(n_nodes):
            v = yield from dcr.read(0x10 * i)
            out.append(v)

    sim.fork(cpu())
    sim.run(until=50_000_000)
    assert out == [i + 1 for i in range(n_nodes)]


@given(
    st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 0xFFFF_FFFF)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=25, deadline=None)
def test_plb_memory_is_last_write_wins(ops):
    """Random word writes over the bus behave like an array."""
    sim = Simulator()
    top = Module("top")
    clk = Clock("clk", MHz(100), parent=top)
    bus = PlbBus("plb", clk, parent=top)
    mem = PlbMemory("mem", 256, parent=top)
    bus.attach_slave(mem, 0, 256)
    port = bus.attach_master("m")
    sim.add_module(top)
    model = {}

    def master():
        for idx, value in ops:
            yield from port.write_burst(4 * idx, [value])
            model[idx] = value & 0xFFFF_FFFF
        for idx in sorted(model):
            (got,) = yield from port.read_burst(4 * idx, 1)
            assert got == model[idx]

    proc = sim.fork(master())
    sim.run(until=200_000_000)
    assert proc.finished
