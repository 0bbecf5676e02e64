"""The bug-detection campaign: Table III / Figure 5 as an experiment.

:func:`run_system` simulates the full demonstrator for N frames under a
given configuration and returns a :class:`~repro.verif.scoreboard.RunResult`.
:func:`run_bug_campaign` then reproduces the paper's comparison: every
bug in the catalogue is injected (one at a time) and the system is run
under **both** simulation methods; the outcome matrix shows which
method detects which bug, mirroring the "Comments" column of Table III.

The campaign's runs are mutually independent, so they execute on the
:mod:`repro.exec` fleet runner: ``jobs=1`` reproduces the historical
serial behaviour exactly, ``jobs=N`` fans the runs out to worker
processes, and the merged :class:`CampaignResult` — including its
canonical :meth:`~CampaignResult.to_json_dict` report — is identical
for any ``jobs`` value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional

from ..exec.cache import ARTIFACT_CACHE
from ..exec.fleet import RunSpec, run_many
from ..system.autovision import AutoVisionSystem, SystemConfig
from ..system.software import AutoVisionSoftware
from .faults import BUGS, BugSpec, validate_fault_keys
from .scoreboard import RunResult, SystemScoreboard

# perfbench/workloads.py swaps this module attribute to time fleet tasks
run_many_laned = run_many

__all__ = ["run_system", "run_bug_campaign", "CampaignResult", "BugOutcome"]

#: a run's timeout, in nominal frame times (16 bus cycles per pixel)
#: per requested frame, before the SimB transfer allowance
TIMEOUT_FRAMES_FACTOR = 6


def _monitor_counts(system) -> Dict[str, int]:
    monitors = {
        "isolation_x_leaks": system.isolation.x_leaks,
        "intc_x_violations": system.intc.x_violations,
        "dcr_chain_breaks": system.dcr.chain_break_observed,
        "plb_protocol_errors": system.bus.protocol_errors,
        "icapctrl_fifo_overflows": system.icapctrl.fifo_overflows,
        "icapctrl_errors": len(system.icapctrl.error_events),
        "icapctrl_transfer_aborts": system.icapctrl.transfers_aborted,
        "lost_start_pulses": system.slot.lost_start_pulses,
        "lost_reset_pulses": system.slot.lost_reset_pulses,
    }
    if system.artifacts is not None:
        monitors["simb_framing_errors"] = len(system.artifacts.icap.framing_errors)
        monitors["simb_crc_failures"] = system.artifacts.icap.crc_failures
        monitors["unknown_module_swaps"] = sum(
            p.unknown_module_errors for p in system.artifacts.portals.values()
        )
    return monitors


def run_system(
    config: SystemConfig,
    n_frames: int = 2,
    prepare=None,
) -> RunResult:
    """Build, run and check one complete system simulation.

    ``prepare(system, software, sim)``, when given, is called after
    elaboration but before the software starts — the hook transient
    injectors use to arm themselves.
    """
    validate_fault_keys(config.faults)
    cache_snap = ARTIFACT_CACHE.snapshot()
    system = AutoVisionSystem(config)
    software = AutoVisionSoftware(system)
    sim = system.build()
    scoreboard = SystemScoreboard(system, software)
    scoreboard.start(sim)
    if prepare is not None:
        prepare(system, software, sim)

    frame_cycles = 16 * config.width * config.height
    timeout_ps = n_frames * (
        TIMEOUT_FRAMES_FACTOR * frame_cycles * system.bus_clock.period
        + 8 * (config.simb_payload_words + 64) * system.cfg_clock.period
    )

    wall0 = time.perf_counter()
    sim.fork(software.run(n_frames), "software.main", owner=software)
    sim.run_until_event(software.run_complete, timeout=timeout_ps)
    elapsed = time.perf_counter() - wall0

    tracer = getattr(sim, "tracer", None)
    if tracer is not None and tracer.explicitly_enabled("exec"):
        # cache warmth is process state, not simulation state, so these
        # counters are opt-in (they would break trace byte-determinism)
        for kind, c in ARTIFACT_CACHE.delta_since(cache_snap).items():
            tracer.counter(
                "exec", f"cache_{kind}", hits=c["hits"], misses=c["misses"]
            )

    return RunResult(
        method=config.method,
        faults=tuple(sorted(config.faults)),
        frames_requested=n_frames,
        frames_processed=software.frames_processed,
        frames_drawn=software.frames_drawn,
        frames_dropped=software.frames_dropped,
        hung=not software.finished,
        checks=list(scoreboard.checks),
        software_anomalies=list(software.anomalies),
        monitors=_monitor_counts(system),
        recovery_log=list(software.recovery_log),
        warnings=list(sim.warnings),
        sim_time_ps=sim.time,
        kernel_events=sim.stats.events,
        elapsed_s=elapsed,
    )


@dataclass(frozen=True)
class BugOutcome:
    """One bug's fate under both simulation methods."""

    bug: BugSpec
    vmux_detected: bool
    resim_detected: bool
    vmux_result: RunResult
    resim_result: RunResult

    @property
    def classification(self) -> str:
        if self.bug.is_false_alarm:
            return "vmux false alarm" if self.vmux_detected else "missed"
        if self.resim_detected and self.vmux_detected:
            return "detected by both"
        if self.resim_detected:
            return "ONLY ReSim"
        if self.vmux_detected:
            return "ONLY VMux"
        return "MISSED by both"

    @property
    def matches_paper(self) -> bool:
        """Did our reproduction detect exactly what the paper claims?"""
        expected_vmux = "vmux" in self.bug.expected_detectors
        expected_resim = "resim" in self.bug.expected_detectors
        return (
            self.vmux_detected == expected_vmux
            and self.resim_detected == expected_resim
        )


@dataclass
class CampaignResult:
    outcomes: List[BugOutcome] = field(default_factory=list)
    baseline_vmux: Optional[RunResult] = None
    baseline_resim: Optional[RunResult] = None
    #: fleet execution metadata — wall-clock-side only, deliberately
    #: excluded from :meth:`to_json_dict` so report bytes are identical
    #: for any ``jobs`` value
    jobs: int = 1
    worker_crashes: int = 0

    @property
    def all_match_paper(self) -> bool:
        return all(o.matches_paper for o in self.outcomes)

    @property
    def run_failures(self) -> List[str]:
        """Anomaly strings of runs the fleet had to synthesize."""
        out = []
        for result in self._all_results():
            out.extend(a for a in result.software_anomalies if "fleet:" in a)
        return out

    def _all_results(self) -> List[RunResult]:
        results = [r for r in (self.baseline_vmux, self.baseline_resim) if r]
        for o in self.outcomes:
            results.extend((o.vmux_result, o.resim_result))
        return results

    def outcome(self, key: str) -> BugOutcome:
        for o in self.outcomes:
            if o.bug.key == key:
                return o
        raise KeyError(key)

    def detected_counts(self) -> Dict[str, int]:
        return {
            "vmux": sum(o.vmux_detected for o in self.outcomes),
            "resim": sum(o.resim_detected for o in self.outcomes),
            "resim_only": sum(
                o.resim_detected and not o.vmux_detected for o in self.outcomes
            ),
        }

    def to_json_dict(self) -> dict:
        """Canonical, wall-clock-free report (the determinism contract).

        Contains only simulation-derived data: serialized with
        :func:`~repro.analysis.reporting.canonical_json` it is
        byte-identical across processes, run orders and ``--jobs``
        values.
        """
        return {
            "baseline": {
                "vmux": _run_json(self.baseline_vmux),
                "resim": _run_json(self.baseline_resim),
            },
            "bugs": [
                {
                    "key": o.bug.key,
                    "title": o.bug.title,
                    "expected_detectors": sorted(o.bug.expected_detectors),
                    "vmux_detected": o.vmux_detected,
                    "resim_detected": o.resim_detected,
                    "classification": o.classification,
                    "matches_paper": o.matches_paper,
                    "vmux": _run_json(o.vmux_result),
                    "resim": _run_json(o.resim_result),
                }
                for o in self.outcomes
            ],
            "counts": self.detected_counts(),
            "all_match_paper": self.all_match_paper,
        }


def _run_json(result: Optional[RunResult]) -> Optional[dict]:
    """One run's canonical representation (no wall-clock fields)."""
    if result is None:
        return None
    return {
        "method": result.method,
        "faults": list(result.faults),
        "frames_requested": result.frames_requested,
        "frames_processed": result.frames_processed,
        "frames_drawn": result.frames_drawn,
        "frames_dropped": result.frames_dropped,
        "hung": result.hung,
        "detected": result.detected,
        "checks_ok": all(c.ok for c in result.checks),
        "anomalies": list(result.anomalies),
        "monitors": dict(sorted(result.monitors.items())),
        "sim_time_ps": result.sim_time_ps,
    }


def _campaign_run(config: SystemConfig, n_frames: int) -> RunResult:
    """Fleet task: one complete system run (module-level → picklable)."""
    return run_system(config, n_frames)


def failed_run_result(
    config: SystemConfig, n_frames: int, error: str
) -> RunResult:
    """Placeholder for a run whose fleet task failed or crashed.

    Marked hung with the fleet error as its only anomaly, so it counts
    as "detected" evidence downstream rather than silently passing.
    """
    return RunResult(
        method=config.method,
        faults=tuple(sorted(config.faults)),
        frames_requested=n_frames,
        hung=True,
        software_anomalies=[f"fleet: run failed ({error})"],
    )


def run_bug_campaign(
    bug_keys: Optional[Iterable[str]] = None,
    base_config: Optional[SystemConfig] = None,
    n_frames: int = 2,
    include_baseline: bool = True,
    jobs: int = 1,
    fault_injection: Optional[Dict[str, str]] = None,
) -> CampaignResult:
    """Inject each bug under both methods and classify the outcomes.

    ``jobs`` selects the fleet width: 1 runs serially in-process, N
    fans the independent runs out to worker processes; the merged
    result is identical either way.  ``fault_injection`` is passed through to the fleet (crash testing
    seam).
    """
    if base_config is None:
        base_config = SystemConfig(width=64, height=48, simb_payload_words=256)
    keys = list(bug_keys) if bug_keys is not None else list(BUGS)
    bugs = [BUGS[key] for key in keys]  # validate before spawning anything

    configs: Dict[str, SystemConfig] = {}
    specs: List[RunSpec] = []

    def add(run_key: str, config: SystemConfig) -> None:
        configs[run_key] = config
        specs.append(
            RunSpec(run_key, _campaign_run, {"config": config, "n_frames": n_frames})
        )

    if include_baseline:
        add("baseline:vmux", replace(base_config, method="vmux", faults=frozenset()))
        add("baseline:resim", replace(base_config, method="resim", faults=frozenset()))
    for key in keys:
        add(f"{key}:vmux", replace(base_config, method="vmux", faults=frozenset({key})))
        add(f"{key}:resim", replace(base_config, method="resim", faults=frozenset({key})))

    fleet = run_many_laned(specs, jobs=jobs, fault_injection=fault_injection)
    by_key = {o.key: o for o in fleet.outcomes}

    def result_of(run_key: str) -> RunResult:
        o = by_key[run_key]
        if o.ok:
            return o.value
        return failed_run_result(configs[run_key], n_frames, o.error)

    result = CampaignResult(jobs=fleet.jobs, worker_crashes=fleet.worker_crashes)
    if include_baseline:
        result.baseline_vmux = result_of("baseline:vmux")
        result.baseline_resim = result_of("baseline:resim")
    for key, bug in zip(keys, bugs):
        vmux_run = result_of(f"{key}:vmux")
        resim_run = result_of(f"{key}:resim")
        result.outcomes.append(
            BugOutcome(
                bug=bug,
                vmux_detected=vmux_run.detected,
                resim_detected=resim_run.detected,
                vmux_result=vmux_run,
                resim_result=resim_run,
            )
        )
    return result
