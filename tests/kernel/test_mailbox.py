"""Tests for TLM mailboxes."""

import pytest

from repro.kernel import Mailbox, MailboxEmpty, Simulator, Timer


def test_try_put_try_get_fifo_order():
    sim = Simulator()
    mbox = Mailbox(sim, "m")
    for i in range(3):
        mbox.try_put(i)
    assert [mbox.try_get() for _ in range(3)] == [0, 1, 2]
    with pytest.raises(MailboxEmpty):
        mbox.try_get()


def test_blocking_get_waits_for_put():
    sim = Simulator()
    mbox = Mailbox(sim, "m")
    got = []

    def consumer():
        item = yield from mbox.get()
        got.append((sim.time, item))

    def producer():
        yield Timer(100)
        mbox.try_put("frame")

    sim.fork(consumer())
    sim.fork(producer())
    sim.run()
    assert got == [(100, "frame")]


def test_counters():
    sim = Simulator()
    mbox = Mailbox(sim, "m")
    for i in range(5):
        mbox.try_put(i)
    assert [mbox.try_get() for _ in range(3)] == [0, 1, 2]
    # the two items not taken are still queued, in order
    assert [mbox.try_get() for _ in range(2)] == [3, 4]
    with pytest.raises(MailboxEmpty):
        mbox.try_get()


def test_multiple_consumers_each_get_distinct_items():
    sim = Simulator()
    mbox = Mailbox(sim, "m")
    got = []

    def consumer(name):
        item = yield from mbox.get()
        got.append((name, item))

    def producer():
        yield Timer(10)
        mbox.try_put(1)
        yield Timer(10)
        mbox.try_put(2)

    sim.fork(consumer("c1"))
    sim.fork(consumer("c2"))
    sim.fork(producer())
    sim.run()
    assert sorted(item for _, item in got) == [1, 2]


def test_contending_producers_lose_no_items():
    sim = Simulator()
    mbox = Mailbox(sim, "m")
    got = []

    def producer(base):
        for i in range(3):
            mbox.try_put(base + i)
            yield Timer(3)

    def consumer():
        for _ in range(6):
            item = yield from mbox.get()
            got.append(item)
            yield Timer(10)

    sim.fork(producer(0))
    sim.fork(producer(100))
    sim.fork(consumer())
    sim.run()
    assert sorted(got) == [0, 1, 2, 100, 101, 102]
    # each producer's items arrive in its own FIFO order
    assert [x for x in got if x < 100] == [0, 1, 2]
    assert [x for x in got if x >= 100] == [100, 101, 102]
    with pytest.raises(MailboxEmpty):
        mbox.try_get()  # all six delivered, none left behind


def test_repr_shows_occupancy():
    sim = Simulator()
    mbox = Mailbox(sim, "b")
    mbox.try_put(1)
    assert repr(mbox) == "Mailbox('b', 1 queued)"
