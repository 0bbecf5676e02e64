"""Property-based tests of the simulation kernel's scheduling invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.kernel import Event, Mailbox, Signal, Simulator, Timer


@given(st.lists(st.integers(1, 10_000), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_timers_fire_in_time_order(delays):
    sim = Simulator()
    log = []

    def waiter(d):
        yield Timer(d)
        log.append((sim.time, d))

    for d in delays:
        sim.fork(waiter(d))
    sim.run()
    assert [t for t, _ in log] == sorted(d for d in delays)
    assert sim.time == max(delays)


@given(st.lists(st.integers(0, 5_000), min_size=2, max_size=20))
@settings(max_examples=50, deadline=None)
def test_equal_time_timers_fire_fifo(delays):
    """Timers at the same instant fire in scheduling order."""
    sim = Simulator()
    log = []

    def waiter(i):
        yield Timer(100)
        log.append(i)

    for i in range(len(delays)):
        sim.fork(waiter(i))
    sim.run()
    assert log == list(range(len(delays)))


@given(st.lists(st.integers(0, 255), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_signal_sees_every_distinct_timed_write(values):
    sim = Simulator()
    sig = Signal("s", 8, init=0xAB)
    sim.register_signal(sig)
    seen = []

    def writer():
        for v in values:
            sig.next = v
            yield Timer(10)

    from repro.kernel import Edge

    def watcher():
        while True:
            yield Edge(sig)
            seen.append(sig.value)

    sim.fork(watcher())
    sim.fork(writer())
    sim.run()
    # watcher sees exactly the sequence of *changes*
    expected = []
    last = 0xAB
    for v in values:
        if v != last:
            expected.append(v)
            last = v
    assert seen == expected


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 100)), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_mailbox_preserves_fifo_under_any_interleaving(ops):
    sim = Simulator()
    mbox = Mailbox(sim, "m")
    put_seq = []
    got_seq = []

    def producer():
        for i, (is_put, delay) in enumerate(ops):
            if is_put:
                mbox.try_put(i)
                put_seq.append(i)
            yield Timer(delay + 1)

    def consumer():
        while True:
            item = yield from mbox.get()
            got_seq.append(item)

    sim.fork(producer())
    sim.fork(consumer())
    sim.run(until=1_000_000)
    assert got_seq == put_seq


@given(st.integers(1, 6), st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_fork_join_tree_completes(depth, fanout_seed):
    """A random fork tree, each parent joining its children through the
    done Events they set, always runs to completion."""
    sim = Simulator()
    completed = []

    def node(level, tag, done):
        if level > 0:
            children = []
            for i in range(1 + fanout_seed % 3):
                child_done = Event(f"n{level}_{i}")
                sim.fork(
                    node(level - 1, tag * 4 + i, child_done), f"n{level}_{i}"
                )
                children.append(child_done)
            for child_done in children:
                if not child_done.fired_count:
                    yield child_done.wait()
        yield Timer(1 + tag % 7)
        completed.append((level, tag))
        done.set(sim)

    root = sim.fork(node(depth % 4, 1, Event("root")), "root")
    sim.run()
    assert root.finished
    assert completed[-1][0] == depth % 4  # root completes last
