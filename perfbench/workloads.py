"""The benchmark's workloads, run through the public ``repro`` API.

One iteration is one complete simulation (``run_system``) or one
complete Table III campaign (``run_bug_campaign``).  Everything measured
here is measured from outside: wall time around the call, the public
``SimStats`` and component attributes afterwards, and — in the traced
run only — a ``cProfile`` of the call.  Nothing inside ``src/`` is
instrumented or patched, except that the campaign's call into the fleet
runner is wrapped: its :class:`~repro.exec.FleetReport` is kept, and
each fleet task runs between two host-speed probes.

Every ``wall_s`` is scaled to the reference host (see ``hostspeed``);
``raw_wall_s`` keeps the measured time.
"""

from __future__ import annotations

import cProfile
import hashlib
import os
import pstats
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro
import repro.verif.campaign as campaign_module
from repro.analysis.reporting import canonical_json
from repro.exec import ARTIFACT_CACHE, RunSpec
from repro.system.autovision import AutoVisionSystem
from repro.system.scenarios import scenario
from repro.system.software import AutoVisionSoftware
from repro.verif import SystemScoreboard, run_bug_campaign, run_system

from hostspeed import HostSpeed, normalise
from layers import (
    LAYERS,
    PHASES,
    calls_of,
    codegen_counts,
    rollup_by_owner,
    rollup_self_time,
)

#: frames simulated per system run
N_FRAMES = 2
#: simulated time per step of the Table II phase split (2 us)
PHASE_QUANTUM_PS = 2_000_000
#: steps of the host-speed probes around each fleet task (about 10 ms)
TASK_PROBE_STEPS = 50_000
PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    overrides: Tuple[Tuple[str, object], ...] = ()
    backend: str = "interp"
    campaign: bool = False
    #: workload whose simulated fingerprint this one must reproduce
    parity_with: Optional[str] = None

    def config(self, seed: int):
        return scenario(
            self.scenario, seed=seed, backend=self.backend, **dict(self.overrides)
        )


#: the workloads; why each was chosen is recorded in README.md and
#: BENCHMARK.json
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("frame", "scaled"),
        Workload("frame_codegen", "scaled", backend="codegen", parity_with="frame"),
        Workload("dpr", "tiny", overrides=(("simb_payload_words", 4096),)),
        Workload("campaign", "tiny", campaign=True),
    )
}


def fleet_jobs() -> int:
    """The campaign's fleet width: the CPUs this process may use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # not on Linux
        return max(1, os.cpu_count() or 1)


@dataclass
class Sample:
    """What one iteration produced."""

    #: host seconds scaled to the reference host (see ``hostspeed``)
    wall_s: float
    #: host seconds as measured
    raw_wall_s: float
    #: simulated results that must repeat exactly between iterations
    fingerprint: Dict[str, object] = field(default_factory=dict)
    #: per-layer counts read after the run
    counts: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    events: int = 0
    sim_ps: int = 0
    runs: int = 1


# ----------------------------------------------------------------------
# One system run
# ----------------------------------------------------------------------
def _run_problems(result) -> List[str]:
    problems = []
    if result.hung:
        problems.append("run hung")
    if result.frames_processed != result.frames_requested:
        problems.append(
            f"{result.frames_processed}/{result.frames_requested} frames processed"
        )
    if not result.checks or not all(c.ok for c in result.checks):
        problems.append("scoreboard check failed")
    problems.extend(result.anomalies[:3])
    return problems


def _system_counts(system, software, sim, checks: int) -> Tuple[Dict, Dict]:
    st = sim.stats
    resumes = rollup_by_owner(st.resumes_by_owner)
    changes = rollup_by_owner(st.changes_by_owner)
    dpr_ps = sum(end - start for name, start, end in software.phase_log if name == "dpr")
    fingerprint = {
        "sim_time_ps": sim.time,
        "kernel.events": st.events,
        "kernel.resumes": st.resumes,
        "kernel.value_changes": st.value_changes,
        "kernel.deltas": st.deltas,
        "kernel.timesteps": st.timesteps,
        "bus.plb_beats": system.bus.total_beats,
        "reconfig.simb_words": system.icapctrl.words_drained,
        "reconfig.dpr_sim_ps": dpr_ps,
    }
    for layer in LAYERS:
        fingerprint[f"resumes.{layer}"] = resumes[layer]
        fingerprint[f"value_changes.{layer}"] = changes[layer]
    counts = {
        key: fingerprint[key]
        for key in (
            "kernel.events",
            "kernel.resumes",
            "kernel.value_changes",
            "kernel.deltas",
            "kernel.timesteps",
            "bus.plb_beats",
            "reconfig.simb_words",
        )
    }
    for layer in ("bus", "engines", "reconfig", "system"):
        counts[f"{layer}.resumes"] = resumes[layer]
    for layer in ("bus", "engines"):
        counts[f"{layer}.value_changes"] = changes[layer]
    counts["reconfig.dpr_sim_us"] = dpr_ps / 1e6
    counts["verif.checks"] = checks
    event_counts = getattr(sim._backend, "event_counts", None)
    if event_counts is not None:
        for key, n in codegen_counts(event_counts).items():
            counts[f"kernel.codegen.{key}"] = n
    return fingerprint, counts


def run_system_once(workload: Workload, seed: int, speed: HostSpeed, profiler=None) -> Sample:
    """One complete simulation through ``repro.verif.run_system``."""
    captured = {}

    def capture(system, software, sim):
        captured.update(system=system, software=software, sim=sim)

    snap = ARTIFACT_CACHE.snapshot()
    config = workload.config(seed)
    before = speed.probe()
    t0 = perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        result = run_system(config, N_FRAMES, prepare=capture)
    except Exception as exc:  # a crashed run is a failed operation
        wall = perf_counter() - t0
        return Sample(wall, wall, problems=[f"{type(exc).__name__}: {exc}"])
    finally:
        if profiler is not None:
            profiler.disable()
    wall = perf_counter() - t0
    scaled = normalise(wall, before, speed.probe())
    fingerprint, counts = _system_counts(
        captured["system"], captured["software"], captured["sim"], len(result.checks)
    )
    cache = ARTIFACT_CACHE.delta_since(snap)
    counts["exec.cache_hits"] = sum(c["hits"] for c in cache.values())
    counts["exec.cache_misses"] = sum(c["misses"] for c in cache.values())
    return Sample(
        scaled,
        wall,
        fingerprint=fingerprint,
        counts=counts,
        problems=_run_problems(result),
        events=result.kernel_events,
        sim_ps=result.sim_time_ps,
    )


# ----------------------------------------------------------------------
# One campaign
# ----------------------------------------------------------------------
#: the host-speed probe the campaign's fleet workers use; set around
#: each campaign so forked workers inherit it (a task must be picklable
#: by reference, so it cannot carry the probe itself)
_FLEET_SPEED: Optional[HostSpeed] = None


def _probed_task(task, kwargs):
    """Fleet task: one campaign run between two host-speed probes.

    Returns ``(value, (seconds, scaled seconds))``; the fleet wrapper in
    :func:`run_campaign_once` unpacks it before the campaign sees it.
    """
    speed = _FLEET_SPEED
    before = speed.probe(walks=1, steps=TASK_PROBE_STEPS)
    t0 = perf_counter()
    value = task(**kwargs)
    elapsed = perf_counter() - t0
    after = speed.probe(walks=1, steps=TASK_PROBE_STEPS)
    return value, (elapsed, normalise(elapsed, before, after))


def run_campaign_once(workload: Workload, seed: int, speed: HostSpeed, profiler=None) -> Sample:
    """The Table III campaign through ``repro.verif.run_bug_campaign``.

    Its wall time is scaled by the worker-side probes: by the ratio of
    the runs' scaled to measured seconds.
    """
    global _FLEET_SPEED
    reports, timings = [], []
    fleet_call = campaign_module.run_many_laned

    def recording(specs, *args, **kwargs):
        probed = [
            RunSpec(spec.key, _probed_task, {"task": spec.fn, "kwargs": spec.kwargs})
            for spec in specs
        ]
        report = fleet_call(probed, *args, **kwargs)
        for outcome in report.outcomes:
            if outcome.ok:
                outcome.value, timing = outcome.value
                timings.append(timing)
        reports.append(report)
        return report

    jobs = fleet_jobs()
    campaign_module.run_many_laned = recording
    _FLEET_SPEED = speed
    t0 = perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        result = run_bug_campaign(
            base_config=workload.config(seed), n_frames=N_FRAMES, jobs=jobs
        )
    except Exception as exc:
        wall = perf_counter() - t0
        return Sample(wall, wall, problems=[f"{type(exc).__name__}: {exc}"])
    finally:
        if profiler is not None:
            profiler.disable()
        campaign_module.run_many_laned = fleet_call
        _FLEET_SPEED = None
    wall = perf_counter() - t0
    scale = sum(t[1] for t in timings) / sum(t[0] for t in timings) if timings else 1.0

    report = reports[0]
    runs = [result.baseline_vmux, result.baseline_resim]
    for outcome in result.outcomes:
        runs.extend((outcome.vmux_result, outcome.resim_result))
    problems = []
    if not result.all_match_paper:
        problems.append("detector matrix does not match Table III")
    problems.extend(result.run_failures[:3])
    digest = hashlib.sha256(canonical_json(result.to_json_dict()).encode()).hexdigest()
    busy = sum(o.elapsed_s for o in report.outcomes)
    hits = sum(c["hits"] for c in report.cache.values())
    misses = sum(c["misses"] for c in report.cache.values())
    counts = {
        "kernel.events": sum(r.kernel_events for r in runs),
        "verif.checks": sum(len(r.checks) for r in runs),
        "exec.tasks": len(report.outcomes),
        "exec.retries": sum(o.attempts - 1 for o in report.outcomes),
        "exec.worker_crashes": report.worker_crashes,
        "exec.cache_hits": hits,
        "exec.cache_misses": misses,
        "exec.task_busy_s": busy,
        "exec.worker_wait_s": report.jobs * report.elapsed_s - busy,
    }
    return Sample(
        wall * scale,
        wall,
        fingerprint={"report_sha256": digest, "runs": len(runs)},
        counts=counts,
        problems=problems,
        events=counts["kernel.events"],
        sim_ps=sum(r.sim_time_ps for r in runs),
        runs=len(runs),
    )


def run_once(workload: Workload, seed: int, speed: HostSpeed, profiler=None) -> Sample:
    runner = run_campaign_once if workload.campaign else run_system_once
    return runner(workload, seed, speed, profiler)


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def run_traced(workload: Workload, seed: int, speed: HostSpeed) -> Tuple[Sample, Dict[str, float]]:
    """One iteration under ``cProfile``; returns it and its layer metrics.

    The profiler is a ``sys.setprofile`` hook enabled from here, so the
    simulator keeps its backend (a ``SystemConfig`` tracer, profile mode
    or VCD writer would force the interpreter).
    """
    profiler = cProfile.Profile()
    sample = run_once(workload, seed, speed, profiler)
    stats = pstats.Stats(profiler).stats
    seconds = rollup_self_time(stats, PACKAGE_DIR)
    layer = {f"{name}.self_s": s for name, s in seconds.items()}
    layer["kernel.codegen.driver_calls"] = calls_of(stats, "driver", "<codegen-driver-")
    layer["bus.intc_scans"] = calls_of(stats, "_scan", "bus/interrupts.py")
    layer["engines.rows"] = calls_of(stats, "_compute_row", "engines/base.py")
    return sample, layer


def phase_split(workload: Workload, seed: int, guard_ps: int) -> Tuple[Dict, Dict, List[str]]:
    """Table II split: step in fixed simulated quanta, charge each to a phase.

    The system is assembled exactly as ``run_system`` assembles it and
    stepped with ``Simulator.run_until_event`` in ``PHASE_QUANTUM_PS``
    slices, so it must end on the same simulated fingerprint.  Each
    slice's wall time, kernel events and simulated time go to the phase
    the software was in when the slice started.  Returns
    ``(per-phase totals, fingerprint, problems)``.
    """
    config = workload.config(seed)
    system = AutoVisionSystem(config)
    software = AutoVisionSoftware(system)
    sim = system.build()
    scoreboard = SystemScoreboard(system, software)
    scoreboard.start(sim)
    sim.fork(software.run(N_FRAMES), "software.main", owner=software)

    phases = {p: {"wall_s": 0.0, "events": 0, "sim_us": 0.0} for p in PHASES}
    problems = []
    while True:
        phase = software.current_phase
        events, now = sim.stats.events, sim.time
        t0 = perf_counter()
        fired = sim.run_until_event(software.run_complete, timeout=PHASE_QUANTUM_PS)
        wall = perf_counter() - t0
        if phase in phases:
            acc = phases[phase]
            acc["wall_s"] += wall
            acc["events"] += sim.stats.events - events
            acc["sim_us"] += (sim.time - now) / 1e6
        if fired or software.finished:
            break
        if sim.time == now or sim.time >= guard_ps:
            problems.append(f"phase split stalled at t={sim.time}ps")
            break
    checks = scoreboard.checks
    if len(checks) != N_FRAMES or not all(c.ok for c in checks):
        problems.append("phase split: scoreboard check failed")
    fingerprint, _ = _system_counts(system, software, sim, len(checks))
    return phases, fingerprint, problems
