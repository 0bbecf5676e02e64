"""System assertions made by passive observers of one clean run.

Every completed PLB transfer goes to ``PlbBus.add_observer``, and a
forked watcher process records every value change of a signal by
waiting on ``Edge`` of it.  Neither disturbs the design, so the tests
assert on timing and ordering, not just final state.
"""

import pytest

from repro.kernel import Edge
from repro.system import AutoVisionSoftware, AutoVisionSystem, SystemConfig

SMALL = dict(width=48, height=32, simb_payload_words=128)


def _change_log(sim, signal):
    """Record ``(time, value string)`` for every change of ``signal``.

    The watcher resumes in the delta after each commit, before the next
    update phase, so it reads every committed value exactly once.
    """
    log = []

    def watch():
        while True:
            yield Edge(signal)
            v = signal.value
            log.append((sim.time, str(v) if v.__class__ is int else v.to_string()))

    sim.fork(watch(), f"watch.{signal.name}")
    return log


def _rising_edges(log):
    edges = []
    prev = None
    for t, v in log:
        if v == "1" and prev != "1":
            edges.append(t)
        prev = v
    return edges


@pytest.fixture(scope="module")
def monitored_run():
    config = SystemConfig(**SMALL)
    system = AutoVisionSystem(config)
    software = AutoVisionSoftware(system)
    sim = system.build()
    traffic = []  # every completed PLB transfer, in completion order
    system.bus.add_observer(traffic.append)
    irq_log = _change_log(sim, system.intc.irq)
    done_log = _change_log(sim, system.isolation.out_done)
    sim.fork(software.run(1), "software", owner=software)
    sim.run_until_event(software.run_complete, timeout=800_000_000)
    assert software.finished
    return system, traffic, irq_log, done_log


def test_traffic_monitor_records_all_masters(monitored_run):
    _, traffic, *_ = monitored_run
    masters = {txn.master.name for txn in traffic}
    assert "rr0" in masters  # the engines
    assert "icapctrl_dma" in masters  # the bitstream DMA
    assert "cpu" in masters  # the drawer
    assert "video_in" in masters


def test_traffic_monitor_beat_totals_match_bus_counters(monitored_run):
    system, traffic, *_ = monitored_run
    beats = {}
    for txn in traffic:
        beats[txn.master.name] = beats.get(txn.master.name, 0) + txn.burst
    assert sum(beats.values()) == system.bus.total_beats


def test_bitstream_window_reads(monitored_run):
    """The DMA reads only the two SimB regions, and nothing else reads
    or writes them."""
    system, traffic, *_ = monitored_run
    mm = system.memory_map
    size = (system.config.simb_payload_words + 16) * 4  # as MemoryMap places it
    simbs = [(base, base + size) for base in (mm.bs_cie, mm.bs_me)]

    def in_simb(addr):
        return any(lo <= addr < hi for lo, hi in simbs)

    dma = [txn for txn in traffic if txn.master.name == "icapctrl_dma"]
    assert dma and all(txn.is_read and in_simb(txn.addr) for txn in dma)
    assert {txn.master.name for txn in traffic if in_simb(txn.addr)} == {
        "icapctrl_dma"
    }


def test_transaction_latency_positive(monitored_run):
    _, traffic, *_ = monitored_run
    for txn in traffic[:50]:
        assert txn.completed_at > txn.issued_at


def test_irq_trace_sees_two_engine_interrupts(monitored_run):
    *_, irq_log, _ = monitored_run
    assert len(_rising_edges(irq_log)) >= 2
    assert not any("x" in v for _, v in irq_log)


def test_done_trace_clean_pulses(monitored_run):
    *_, done_log = monitored_run
    # isolation was armed during reconfigs, so no X ever reached the
    # static side of the done line
    assert not any("x" in v for _, v in done_log)
    assert len(_rising_edges(done_log)) == 2  # CIE done + ME done


def test_value_at_or_before(monitored_run):
    """The done line reads 1 at each rise and is back at 0 in between:
    two separate pulses, not one held level."""
    *_, done_log = monitored_run
    first, second = _rising_edges(done_log)

    def value_at(time):
        return [v for t, v in done_log if t <= time][-1]

    assert value_at(first) == value_at(second) == "1"
    assert "0" in [v for t, v in done_log if first < t < second]


def test_region_bus_silent_during_reconfiguration(monitored_run):
    """``rr0`` issues no PLB transfer inside any reconfiguration window
    (portal ``inject_start`` .. ``swap``)."""
    system, traffic, *_ = monitored_run
    windows = []
    start = None
    for rec in system.artifacts.portal("video_rr").timeline:
        if rec.kind == "inject_start":
            start = rec.time
        elif rec.kind == "swap" and start is not None:
            windows.append((start, rec.time))
            start = None
    assert windows
    violations = [
        txn
        for txn in traffic
        if txn.master.name == "rr0"
        and any(lo <= txn.completed_at <= hi for lo, hi in windows)
    ]
    assert not violations, violations
