"""Kernel-throughput measurement behind ``repro bench``.

This module is the single definition of the micro-benchmark workloads
plus the baseline-file plumbing for the perf-regression check:

* each ``bench_*`` function builds a fresh :class:`~repro.kernel.Simulator`,
  runs a fixed workload, and returns the work count (cycles, updates, …);
* :func:`measure` times each kernel ``repeats`` times and keeps the
  *minimum* elapsed time — noise on a shared machine only ever slows a
  run down, so min-of-N is the honest throughput estimate;
* :func:`write_baseline` / :func:`load_baseline` / :func:`compare`
  implement the ``BENCH_kernel.json`` regression gate used by
  ``repro bench --check`` (fails on >20% throughput loss by default).

The workloads run on the interpreter.  End-to-end time on the paper's
design is measured by ``perfbench/``.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional

from ..bus import PlbBus, PlbMemory
from ..kernel import (
    Clock,
    Edge,
    MHz,
    Module,
    RisingEdge,
    Signal,
    Simulator,
    Timer,
)

__all__ = [
    "KERNELS",
    "DEFAULT_BASELINE",
    "DEFAULT_TOLERANCE",
    "bench_clock_toggle",
    "bench_signal_update",
    "bench_edge_wait",
    "bench_proc_resume",
    "bench_plb_burst",
    "measure",
    "write_baseline",
    "load_baseline",
    "compare",
]

#: repo-relative location of the committed baseline
DEFAULT_BASELINE = Path("benchmarks") / "BENCH_kernel.json"

#: allowed fractional throughput loss before --check fails
DEFAULT_TOLERANCE = 0.20

_SCHEMA = 1


def bench_clock_toggle(cycles: int = 100_000) -> int:
    """Pure clock generation: the floor cost of a simulated cycle."""
    sim = Simulator()
    clk = Clock("clk", MHz(100))
    sim.add_module(clk)
    sim.run(until=cycles * MHz(100))
    assert sim.stats.events >= 2 * cycles
    return cycles


def bench_signal_update(updates: int = 40_000) -> int:
    """Back-to-back non-blocking updates with a sensitive watcher.

    The writer is paced by a lone ``Timer``.  The loop shape is kept as
    recorded in the committed baseline, so throughput stays comparable
    across revisions.  The signal is 8 bits wide and the written values
    wrap through its full range; every one is a defined ``int``, which
    the kernel stores as it is, so the workload times the
    commit/wakeup machinery itself.
    """
    sim = Simulator()
    sig = Signal("s", 8, init=0)
    sim.register_signal(sig)
    seen = [0]

    def writer():
        i = 0
        while i < updates:
            sig.next = (i + 1) & 0xFF
            i += 1
            yield Timer(10)

    def watcher():
        n = 0
        while True:
            yield Edge(sig)
            n += 1
            seen[0] = n

    sim.fork(writer())
    sim.fork(watcher())
    sim.run()
    assert seen[0] == updates
    return updates


def bench_edge_wait(cycles: int = 20_000) -> int:
    """One process waking on every clock edge (the engine pattern)."""
    sim = Simulator()
    clk = Clock("clk", MHz(100))
    sim.add_module(clk)
    count = [0]

    def waiter():
        while True:
            yield RisingEdge(clk.out)
            count[0] += 1

    sim.fork(waiter())
    sim.run(until=cycles * MHz(100))
    assert count[0] >= cycles - 1
    return cycles


def bench_proc_resume(cycles: int = 40_000) -> int:
    """Generator-resume cost: a branching FSM stepped every clock edge.

    The workload is dominated by process resumes, not commits: a
    three-state FSM wakes on every rising edge, branches on its state
    local, and writes two signals, while an ``Edge`` watcher rides
    ``state``.  Every written value is a defined ``int``, which the
    kernel stores as it is, so nothing is allocated per commit.
    """
    sim = Simulator()
    clk = Clock("clk", MHz(100))
    sim.add_module(clk)
    state = Signal("state", 2, init=0)
    out = Signal("out", 8, init=0)
    sim.register_signal(state)
    sim.register_signal(out)
    ticks = [0]

    def fsm():
        s = 0
        acc = 0
        while True:
            yield RisingEdge(clk.out)
            if s == 0:
                acc = acc + 1
                s = 1
            elif s == 1:
                acc = acc + (acc >> 2) + 3
                s = 2
            else:
                acc = acc & 0xFFF
                s = 0
            state.next = s
            out.next = acc & 0xFF

    def watcher():
        n = 0
        while True:
            yield Edge(state)
            n += 1
            ticks[0] = n

    sim.fork(fsm())
    sim.fork(watcher())
    sim.run(until=cycles * MHz(100))
    assert ticks[0] >= cycles - 2
    return cycles


def bench_plb_burst(bursts: int = 200) -> int:
    """Bus-limited DMA: the IcapCTRL/engine traffic pattern."""
    sim = Simulator()
    top = Module("top")
    clk = Clock("clk", MHz(100), parent=top)
    bus = PlbBus("plb", clk, parent=top)
    mem = PlbMemory("mem", 64 * 1024, parent=top)
    bus.attach_slave(mem, 0, 64 * 1024)
    port = bus.attach_master("dma")
    sim.add_module(top)

    def dma():
        for _ in range(bursts):
            yield from port.write_burst(0, list(range(16)))

    sim.fork(dma())
    sim.run(until=100_000_000)
    assert bus.total_beats == bursts * 16
    return bus.total_beats


#: name -> (workload, unit of the returned work count)
KERNELS: Dict[str, tuple] = {
    "clock_toggle": (bench_clock_toggle, "cycles"),
    "signal_update": (bench_signal_update, "updates"),
    "edge_wait": (bench_edge_wait, "cycles"),
    "proc_resume": (bench_proc_resume, "cycles"),
    "plb_burst": (bench_plb_burst, "beats"),
}


def _measure_one(name: str, repeats: int) -> dict:
    """Min-of-N measurement of one kernel."""
    fn, unit = KERNELS[name]
    best = None
    work = 0
    for _ in range(max(1, repeats)):
        t0 = perf_counter()
        work = fn()
        dt = perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return {
        "work": work,
        "unit": unit,
        "best_s": best,
        "per_sec": work / best if best else 0.0,
    }


def measure(
    repeats: int = 3,
    kernels: Optional[Iterable[str]] = None,
) -> Dict[str, dict]:
    """Run the named kernels (default: all); return per-kernel results.

    Each entry maps name -> ``{"work", "unit", "best_s", "per_sec"}``.
    Kernels run serially in this process, so no two measurements
    contend for a core.
    """
    names = list(kernels) if kernels is not None else list(KERNELS)
    for name in names:
        if name not in KERNELS:
            raise KeyError(name)
    return {name: _measure_one(name, repeats) for name in names}


def write_baseline(results: Dict[str, dict], path: Path) -> None:
    """Write a measurement to ``path`` in the baseline schema."""
    doc = {
        "schema": _SCHEMA,
        "python": platform.python_version(),
        "platform": sys.platform,
        "kernels": {
            name: {
                "work": r["work"],
                "unit": r["unit"],
                "best_s": r["best_s"],
                "per_sec": r["per_sec"],
            }
            for name, r in sorted(results.items())
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def load_baseline(path: Path) -> Dict[str, dict]:
    """Load a baseline file; returns its ``kernels`` mapping.

    Fields beside ``schema`` and ``kernels`` are informational and
    ignored.
    """
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != _SCHEMA:
        raise ValueError(f"unsupported baseline schema in {path}")
    return doc["kernels"]


def compare(
    current: Dict[str, dict],
    baseline: Dict[str, dict],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[dict]:
    """Compare a fresh measurement against a baseline.

    Returns one row per kernel present in *both*:
    ``{"name", "baseline_per_sec", "per_sec", "ratio", "ok"}`` where
    ``ratio`` is current/baseline throughput and ``ok`` is False when
    the kernel lost more than ``tolerance`` of its baseline throughput.
    """
    rows = []
    for name in sorted(baseline):
        if name not in current:
            continue
        base = baseline[name]["per_sec"]
        now = current[name]["per_sec"]
        ratio = now / base if base else 0.0
        rows.append(
            {
                "name": name,
                "baseline_per_sec": base,
                "per_sec": now,
                "ratio": ratio,
                "ok": ratio >= 1.0 - tolerance,
            }
        )
    return rows
