"""Kernel-throughput measurement shared by ``benchmarks/`` and ``repro bench``.

The pytest micro-benchmarks and the ``repro bench`` CLI subcommand both
need to run the same workloads; this module is the single definition of
those workloads plus the baseline-file plumbing for the perf-regression
check:

* each ``bench_*`` function builds a fresh :class:`~repro.kernel.Simulator`,
  runs a fixed workload, and returns the work count (cycles, updates, …);
* :func:`measure` times each kernel ``repeats`` times and keeps the
  *minimum* elapsed time — noise on a shared machine only ever slows a
  run down, so min-of-N is the honest throughput estimate;
* :func:`write_baseline` / :func:`load_baseline` / :func:`compare`
  implement the ``BENCH_kernel.json`` regression gate used by
  ``repro bench --check`` (fails on >20% throughput loss by default);
* :func:`measure_system` is the end-to-end sweep benchmark behind
  ``repro bench --system``: frame throughput cold vs artifact-cache
  warm, and campaign wall clock serial vs fleet-parallel — the numbers
  recorded in ``BENCH_system.json``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

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
    "DEFAULT_CODEGEN_BASELINE",
    "DEFAULT_SYSTEM_BASELINE",
    "DEFAULT_TOLERANCE",
    "default_baseline_path",
    "bench_clock_toggle",
    "bench_signal_update",
    "bench_edge_wait",
    "bench_proc_resume",
    "bench_plb_burst",
    "measure",
    "measure_system",
    "write_baseline",
    "load_baseline",
    "baseline_backend",
    "compare",
    "write_system_baseline",
    "load_system_baseline",
]

#: repo-relative location of the committed baseline (interp backend)
DEFAULT_BASELINE = Path("benchmarks") / "BENCH_kernel.json"

#: committed baseline for the codegen execution backend
DEFAULT_CODEGEN_BASELINE = Path("benchmarks") / "BENCH_kernel_codegen.json"


def default_baseline_path(backend: str = "interp") -> Path:
    """The committed baseline file for an execution backend."""
    return DEFAULT_CODEGEN_BASELINE if backend == "codegen" else DEFAULT_BASELINE

#: repo-relative location of the end-to-end system benchmark record
DEFAULT_SYSTEM_BASELINE = Path("benchmarks") / "BENCH_system.json"

#: allowed fractional throughput loss before --check fails
DEFAULT_TOLERANCE = 0.20

_SCHEMA = 1

_SYSTEM_SCHEMA = 1

def bench_clock_toggle(cycles: int = 100_000, backend: str = "interp") -> int:
    """Pure clock generation: the floor cost of a simulated cycle."""
    sim = Simulator(backend=backend)
    clk = Clock("clk", MHz(100))
    sim.add_module(clk)
    sim.run(until=cycles * MHz(100))
    assert sim.stats.events >= 2 * cycles
    return cycles


def bench_signal_update(updates: int = 40_000, backend: str = "interp") -> int:
    """Back-to-back non-blocking updates with a sensitive watcher.

    The writer is paced by a lone ``Timer``, so on the codegen backend
    it runs through the driver's timer sprint and single-update settle.
    The loop shapes are kept as recorded in the committed baselines,
    so throughput stays comparable across revisions.  The signal
    is 8 bits wide and the written values wrap through the full
    :class:`LogicVector` interning table, so the kernel times the
    commit/wakeup machinery itself rather than vector allocation
    (which costs both backends the same ~0.4us and would only dilute
    the comparison).
    """
    sim = Simulator(backend=backend)
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


def bench_edge_wait(cycles: int = 20_000, backend: str = "interp") -> int:
    """One process waking on every clock edge (the engine pattern)."""
    sim = Simulator(backend=backend)
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


def bench_proc_resume(cycles: int = 40_000, backend: str = "interp") -> int:
    """Generator-resume cost: a branching FSM stepped every clock edge.

    The workload is dominated by process resumes, not commits: a
    three-state FSM wakes on every rising edge, branches on its state
    local, and writes two signals, while an ``Edge`` watcher rides
    ``state``.  On the codegen backend each two-signal commit settles
    through the driver's generic multi-update round.  Both signals
    are narrow enough that every written value hits the
    :class:`LogicVector` interning table, keeping vector allocation (a
    cost both backends share equally) out of the measurement.
    """
    sim = Simulator(backend=backend)
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


def bench_plb_burst(bursts: int = 200, backend: str = "interp") -> int:
    """Bus-limited DMA: the IcapCTRL/engine traffic pattern."""
    sim = Simulator(backend=backend)
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

def _measure_one(name: str, repeats: int, backend: str = "interp") -> dict:
    """Fleet task: min-of-N measurement of one kernel."""
    fn, unit = KERNELS[name]
    best = None
    work = 0
    for _ in range(max(1, repeats)):
        t0 = perf_counter()
        work = fn(backend=backend)
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
    jobs: int = 1,
    backend: str = "interp",
) -> Dict[str, dict]:
    """Run the named kernels (default: all); return per-kernel results.

    Each entry maps name -> ``{"work", "unit", "best_s", "per_sec"}``.
    ``jobs>1`` measures kernels on fleet workers in parallel — useful
    for a quick sweep, but note concurrent workers contend for cores,
    so serial measurement stays the honest default for regression
    gating.
    """
    from ..exec.fleet import RunSpec, run_many

    names = list(kernels) if kernels is not None else list(KERNELS)
    for name in names:
        if name not in KERNELS:
            raise KeyError(name)
    specs = [
        RunSpec(
            name,
            _measure_one,
            {"name": name, "repeats": repeats, "backend": backend},
        )
        for name in names
    ]
    fleet = run_many(specs, jobs=jobs)
    failures = fleet.failures()
    if failures:
        detail = "; ".join(f"{o.key}: {o.error}" for o in failures)
        raise RuntimeError(f"benchmark kernel(s) failed: {detail}")
    return {o.key: o.value for o in fleet.outcomes}


def write_baseline(
    results: Dict[str, dict], path: Path, backend: str = "interp"
) -> None:
    """Write a measurement to ``path`` in the baseline schema.

    ``backend`` is recorded alongside the numbers so a baseline file
    states which execution backend produced it; :func:`load_baseline`
    tolerates files written before the field existed (they are interp
    measurements by construction).
    """
    doc = {
        "schema": _SCHEMA,
        "python": platform.python_version(),
        "platform": sys.platform,
        "backend": backend,
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

    Files written before the ``backend`` field existed load fine — the
    field is informational (see :func:`baseline_backend`).
    """
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != _SCHEMA:
        raise ValueError(f"unsupported baseline schema in {path}")
    return doc["kernels"]


def baseline_backend(path: Path) -> str:
    """Which backend a baseline file records (``interp`` if unstated)."""
    doc = json.loads(Path(path).read_text())
    return doc.get("backend", "interp")


def measure_system(
    jobs: int = 4,
    frames: int = 1,
    bug_keys: Optional[Iterable[str]] = None,
) -> dict:
    """End-to-end sweep benchmark: cache warmth and fleet parallelism.

    Three measurements, all on the ``tiny`` scenario:

    * one system run with the artifact cache *cleared* (cold) and one
      immediately after (warm) — the warm run reuses frames, firmware,
      SimBs and the assembled memory image, and the hit counters prove
      it;
    * the bug campaign serially (``jobs=1``) and fleet-parallel
      (``jobs=N``), wall clock and speedup.

    Results are wall-clock numbers — machine-dependent by nature, so
    they carry ``cpus`` and are recorded (not regression-gated) in
    ``BENCH_system.json``.
    """
    from ..exec.cache import ARTIFACT_CACHE
    from ..system.scenarios import scenario
    from ..verif.campaign import run_bug_campaign, run_system

    config = scenario("tiny")

    ARTIFACT_CACHE.clear()
    t0 = perf_counter()
    run_system(config, n_frames=frames)
    cold_s = perf_counter() - t0

    snap = ARTIFACT_CACHE.snapshot()
    t0 = perf_counter()
    run_system(config, n_frames=frames)
    warm_s = perf_counter() - t0
    warm_delta = ARTIFACT_CACHE.delta_since(snap)
    warm_hits = sum(c["hits"] for c in warm_delta.values())

    keys = list(bug_keys) if bug_keys is not None else ["dpr.1", "dpr.4"]
    t0 = perf_counter()
    run_bug_campaign(keys, base_config=config, n_frames=frames, jobs=1)
    serial_s = perf_counter() - t0
    t0 = perf_counter()
    run_bug_campaign(keys, base_config=config, n_frames=frames, jobs=jobs)
    parallel_s = perf_counter() - t0

    return {
        "scenario": "tiny",
        "frames": frames,
        "cpus": os.cpu_count() or 1,
        "single_run": {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_speedup": cold_s / warm_s if warm_s else 0.0,
            "warm_cache_hits": warm_hits,
            "warm_cache_stats": warm_delta,
        },
        "campaign": {
            "bugs": keys,
            "runs": 2 * (len(keys) + 1),
            "jobs": jobs,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s else 0.0,
        },
    }


def write_system_baseline(result: dict, path: Path) -> None:
    """Record a system measurement to ``path``."""
    doc = {
        "schema": _SYSTEM_SCHEMA,
        "python": platform.python_version(),
        "platform": sys.platform,
        "system": result,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def load_system_baseline(path: Path) -> dict:
    """Load a recorded system measurement; returns its ``system`` dict."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != _SYSTEM_SCHEMA:
        raise ValueError(f"unsupported system baseline schema in {path}")
    return doc["system"]


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
