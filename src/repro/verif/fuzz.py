"""Coverage-closure fuzzing: constrained-random differential scenarios.

The paper's claim — ReSim-style simulation "covers all aspects of DPR"
while Virtual Multiplexing models module swapping only — is encoded by
:class:`~repro.verif.coverage.DprCoverage` as cover points, but nothing
*drove* coverage closure: scenarios were hand-picked and the two
methods were never checked against each other on randomized stimulus.
This module supplies that missing layer:

* :class:`FuzzScenario` — one constrained-random operating point,
  sampled from the legal ranges declared in
  :data:`~repro.system.scenarios.FUZZ_CONSTRAINTS` (frame counts and
  geometry, parameter-register programs, SimB length, configuration
  clocking, transient-fault mixes, fault-tolerance knobs),
* :func:`run_differential` — runs one scenario under **both** ReSim and
  VMux and diffs scoreboards, frame outcomes, interrupt counts and the
  end-of-run DCR read-back.  Each divergence is classified *expected*
  (a VMux blind spot — asserted against the corresponding cover point
  being unreachable under VMux) or a *real bug*,
* :func:`run_fuzz_campaign` — the closure loop: generates fixed-size
  waves of scenarios, fans them out over
  :func:`repro.exec.fleet.run_many`, accumulates ReSim coverage in
  input order, and stops when every ReSim-reachable point saturates,
  a real divergence appears (which is then handed to the shrinker) or
  the budget dries.  Because wave size, scenario parameters and the
  stop decision depend only on the seed and the ordered results, the
  canonical JSON report is byte-identical for any ``--jobs`` value.

The transient pool is restricted to the bitstream-datapath transients
(``payload_bitflip``, ``truncated_simb``, ``dma_stall``,
``fifo_backpressure``): those are method *blind spots* — under VMux the
machinery that would feel them never runs — so their divergences are
classifiable.  ``x_burst`` is excluded because its observability
depends on where the burst lands relative to method-specific engine
timing, which is a timing artefact, not a blind spot.

``divergence_fault`` is the seeded divergence-injection seam: a bug key
from :data:`~repro.verif.faults.BUGS` applied to the *ReSim side only*,
which makes the two methods genuinely disagree — the deterministic
"known real bug" the shrinker and the checker-mutation tests feed on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exec.fleet import RunSpec, derive_seed, run_many
from ..system.autovision import SystemConfig
from ..system.scenarios import FUZZ_CONSTRAINTS
from .campaign import _run_json, run_system
from .coverage import DprCoverage, point_names
from .faults import BUGS
from .transients import TRANSIENTS

__all__ = [
    "FUZZ_TRANSIENT_POOL",
    "VMUX_BLIND_POINTS",
    "FuzzScenario",
    "ScenarioGenerator",
    "SideResult",
    "FieldDiff",
    "FuzzRecord",
    "FuzzReport",
    "run_differential",
    "run_fuzz_campaign",
    "scenario_from_dict",
]

#: transients legal in fuzz mixes (bitstream-datapath blind spots only)
FUZZ_TRANSIENT_POOL: Tuple[str, ...] = (
    "payload_bitflip",
    "truncated_simb",
    "dma_stall",
    "fifo_backpressure",
)

#: cover points a Virtual-Multiplexing simulation can never hit — the
#: paper's blind-spot argument as a set.  ``swap_to_me`` is included
#: because VMux coverage finalization only credits the module resident
#: at end-of-run (always the CIE, the steady-state engine).
VMUX_BLIND_POINTS = frozenset(
    {
        "bitstream_transfer",
        "injection_window",
        "isolation_armed",
        "phase_during",
        "intra_frame_swap",
        "fifo_backpressure",
        "reset_after_swap",
        "start_after_reconfig",
        "swap_to_me",
    }
)

#: divergence fields that only exist because the reconfiguration
#: machinery is live under ReSim — always expected, keyed on the
#: bitstream-transfer blind spot
_STRUCTURAL_PREFIXES = (
    "monitor:icapctrl_",
    "monitor:simb_",
    "monitor:unknown_module_swaps",
    "dcr:icapctrl.",
    # the reconfiguration-done interrupt only exists when the real
    # IcapCTRL runs a transfer; VMux swaps without raising it
    "irq:reconfig_done",
)

#: fields a bitstream-path transient may legitimately skew under ReSim
#: while VMux never feels the fault at all
_TRANSIENT_SENSITIVE_PREFIXES = (
    "frames_",
    "hung",
    "detected",
    "checks",
    "irq:",
    "monitor:",
    "recovery_actions",
)

#: DCR registers snapshotted after the run for the read-back diff; the
#: software programs these identically under either method, so any
#: end-of-run difference is evidence
_DCR_READBACK_REGS = ("SRC1", "SRC2", "DST", "WIDTH", "HEIGHT", "RADIUS")


@dataclass(frozen=True)
class FuzzScenario:
    """One constrained-random operating point of the demonstrator.

    All fields are plain data (JSON-serializable, picklable) so a
    scenario can cross the fleet's process boundary and round-trip
    through a replay file byte-exactly.
    """

    index: int
    #: stimulus seed (drives transient placement/choices), derived from
    #: the campaign seed and the index — hash-stable across processes
    seed: int
    n_frames: int
    width: int
    height: int
    n_objects: int
    scene_seed: int
    radius: int
    simb_payload_words: int
    cfg_mhz: float
    fault_tolerance: bool
    watchdog_cycles: int
    max_reconfig_attempts: int
    retry_backoff_cycles: int
    #: ``(transient key, window fraction)`` pairs, armed on both sides
    transients: Tuple[Tuple[str, float], ...] = ()
    #: divergence-injection seam: a BUGS key applied to the ReSim side
    #: only (testing the differential checker and the shrinker)
    divergence_fault: Optional[str] = None

    def config(self, method: str, backend: str = "interp") -> SystemConfig:
        faults = (
            frozenset({self.divergence_fault})
            if self.divergence_fault and method == "resim"
            else frozenset()
        )
        return SystemConfig(
            method=method,
            backend=backend,
            width=self.width,
            height=self.height,
            n_objects=self.n_objects,
            seed=self.scene_seed,
            radius=self.radius,
            simb_payload_words=self.simb_payload_words,
            cfg_mhz=self.cfg_mhz,
            faults=faults,
            fault_tolerance=self.fault_tolerance,
            watchdog_cycles=self.watchdog_cycles,
            max_reconfig_attempts=self.max_reconfig_attempts,
            retry_backoff_cycles=self.retry_backoff_cycles,
        )

    def window_estimate_ps(self) -> int:
        """Rough active-run duration, for placing transient injections.

        An estimate is deliberately used instead of a calibration run
        (the soak campaign's approach): it halves the cost per scenario,
        and a late-landing injection merely degrades to a masked run.
        """
        bus_period = int(1e6 / 100.0)  # SystemConfig default bus clock
        cfg_period = int(1e6 / self.cfg_mhz)
        per_frame = (
            5 * self.width * self.height * bus_period
            + 2 * (self.simb_payload_words + 64) * 4 * cfg_period
        )
        return self.n_frames * per_frame

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "n_frames": self.n_frames,
            "width": self.width,
            "height": self.height,
            "n_objects": self.n_objects,
            "scene_seed": self.scene_seed,
            "radius": self.radius,
            "simb_payload_words": self.simb_payload_words,
            "cfg_mhz": self.cfg_mhz,
            "fault_tolerance": self.fault_tolerance,
            "watchdog_cycles": self.watchdog_cycles,
            "max_reconfig_attempts": self.max_reconfig_attempts,
            "retry_backoff_cycles": self.retry_backoff_cycles,
            "transients": [[k, f] for k, f in self.transients],
            "divergence_fault": self.divergence_fault,
        }

    def validate(self) -> None:
        """Check every randomized field against its declared constraint."""
        for name, constraint in FUZZ_CONSTRAINTS.items():
            value = (
                len(self.transients)
                if name == "n_transients"
                else getattr(self, name)
            )
            if not constraint.legal(value):
                raise ValueError(
                    f"scenario {self.index}: {name}={value!r} outside the "
                    f"legal range ({constraint.description})"
                )
        for key, frac in self.transients:
            if key not in FUZZ_TRANSIENT_POOL:
                raise ValueError(
                    f"scenario {self.index}: transient {key!r} not in the "
                    f"fuzz pool {FUZZ_TRANSIENT_POOL}"
                )
            if not 0.0 <= frac <= 1.0:
                raise ValueError(
                    f"scenario {self.index}: window fraction {frac!r} "
                    f"outside [0, 1]"
                )
        if self.divergence_fault is not None and self.divergence_fault not in BUGS:
            raise ValueError(
                f"scenario {self.index}: unknown divergence fault "
                f"{self.divergence_fault!r}"
            )


def scenario_from_dict(data: dict) -> FuzzScenario:
    """Rebuild (and validate) a scenario from its JSON form."""
    scenario = FuzzScenario(
        index=data["index"],
        seed=data["seed"],
        n_frames=data["n_frames"],
        width=data["width"],
        height=data["height"],
        n_objects=data["n_objects"],
        scene_seed=data["scene_seed"],
        radius=data["radius"],
        simb_payload_words=data["simb_payload_words"],
        cfg_mhz=data["cfg_mhz"],
        fault_tolerance=data["fault_tolerance"],
        watchdog_cycles=data["watchdog_cycles"],
        max_reconfig_attempts=data["max_reconfig_attempts"],
        retry_backoff_cycles=data["retry_backoff_cycles"],
        transients=tuple((k, f) for k, f in data.get("transients", [])),
        divergence_fault=data.get("divergence_fault"),
    )
    scenario.validate()
    return scenario


class ScenarioGenerator:
    """Seeded constrained-random scenario source.

    ``generator.scenario(i)`` is a pure function of ``(seed, i)``: each
    index gets its own :class:`random.Random` keyed by
    :func:`~repro.exec.fleet.derive_seed`, so any process — serial
    driver or fleet worker — regenerates the identical scenario.
    """

    def __init__(self, seed: int, inject_divergence: Optional[str] = None):
        if inject_divergence is not None and inject_divergence not in BUGS:
            raise KeyError(
                f"unknown divergence fault {inject_divergence!r}; "
                f"see `repro bugs`"
            )
        self.seed = seed
        self.inject_divergence = inject_divergence

    def scenario(self, index: int) -> FuzzScenario:
        rng = random.Random(derive_seed(self.seed, "fuzz-scenario", index))
        values = {
            name: constraint.sample(rng)
            for name, constraint in FUZZ_CONSTRAINTS.items()
        }
        n_transients = values.pop("n_transients")
        mix = tuple(
            (key, round(0.05 + 0.70 * rng.random(), 4))
            for key in sorted(rng.sample(FUZZ_TRANSIENT_POOL, n_transients))
        )
        return FuzzScenario(
            index=index,
            seed=derive_seed(self.seed, "fuzz-stimulus", index),
            transients=mix,
            divergence_fault=self.inject_divergence,
            **values,
        )


# ----------------------------------------------------------------------
# The differential harness
# ----------------------------------------------------------------------
@dataclass
class SideResult:
    """Everything one method's run contributes to the diff."""

    method: str
    frames_processed: int
    frames_drawn: int
    frames_dropped: int
    hung: bool
    detected: bool
    #: per-frame ``(feat_ok, vec_ok, overlay_ok)`` scoreboard verdicts
    checks: Tuple[Tuple[bool, bool, bool], ...]
    #: per-source interrupt raise counts, ``source name -> count``
    interrupts: Dict[str, int]
    recovery_actions: int
    monitors: Dict[str, int]
    #: end-of-run DCR-visible register state, ``block.REG -> value``
    dcr: Dict[str, int]
    coverage: Dict[str, int]
    sim_time_ps: int
    anomalies: List[str] = field(default_factory=list)


@dataclass
class FieldDiff:
    """One divergent observable between the two methods."""

    field: str
    resim: object
    vmux: object
    #: ``expected`` (a VMux blind spot) or ``real``
    classification: str
    #: the unreachable cover point an expected divergence asserts against
    cover_point: Optional[str] = None
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "field": self.field,
            "resim": self.resim,
            "vmux": self.vmux,
            "classification": self.classification,
            "cover_point": self.cover_point,
            "note": self.note,
        }


@dataclass
class FuzzRecord:
    """One scenario's differential outcome."""

    scenario: FuzzScenario
    resim: Optional[SideResult]
    vmux: Optional[SideResult]
    diffs: List[FieldDiff] = field(default_factory=list)
    #: fleet-level failure (worker crash, task exception), never silent
    error: str = ""

    @property
    def real_diffs(self) -> List[FieldDiff]:
        return [d for d in self.diffs if d.classification == "real"]

    @property
    def failed(self) -> bool:
        return bool(self.error) or bool(self.real_diffs)

    @property
    def signature(self) -> Tuple[str, ...]:
        """The failure's identity: the sorted real-divergence fields."""
        if self.error:
            return ("fleet-error",)
        return tuple(sorted(d.field for d in self.real_diffs))

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_json_dict(),
            "error": self.error,
            "diffs": [d.to_json_dict() for d in self.diffs],
            "signature": list(self.signature),
            "resim": _side_json(self.resim),
            "vmux": _side_json(self.vmux),
        }


def _side_json(side: Optional[SideResult]) -> Optional[dict]:
    if side is None:
        return None
    return {
        "frames_processed": side.frames_processed,
        "frames_drawn": side.frames_drawn,
        "frames_dropped": side.frames_dropped,
        "hung": side.hung,
        "detected": side.detected,
        "checks": [list(c) for c in side.checks],
        "interrupts": dict(sorted(side.interrupts.items())),
        "recovery_actions": side.recovery_actions,
        "monitors": dict(sorted(side.monitors.items())),
        "dcr": dict(sorted(side.dcr.items())),
        "coverage": dict(sorted(side.coverage.items())),
        "sim_time_ps": side.sim_time_ps,
        "anomalies": list(side.anomalies),
    }


def _dcr_snapshot(system) -> Dict[str, int]:
    """Backdoor read-back of the stable DCR-programmed registers."""
    snap = {
        f"engine_regs.{name}": system.engine_regs.peek(name)
        for name in _DCR_READBACK_REGS
    }
    for name in ("BADDR", "BSIZE"):
        snap[f"icapctrl.{name}"] = system.icapctrl.peek(name)
    return snap


def _arm_stimulus(scenario: FuzzScenario, system, software, sim) -> None:
    """Arm the scenario's transient mix (identical on both sides).

    The per-transient RNG is keyed on the *scenario* seed — not the
    method — so both methods see the same corrupted word, the same
    flipped bit, the same stall instant: the diff compares responses to
    one stimulus, not two.
    """
    window = scenario.window_estimate_ps()
    tracer = getattr(sim, "tracer", None)
    for key, fraction in scenario.transients:
        rng = random.Random(derive_seed(scenario.seed, "transient", key))
        at_ps = max(1, int(fraction * window))
        TRANSIENTS[key].arm(system, software, sim, rng, at_ps)
        if tracer is not None:
            tracer.instant(
                "fuzz", "arm-transient", key=key, at_ps=at_ps,
            )


def _run_side(
    scenario: FuzzScenario, method: str, backend: str = "interp"
) -> SideResult:
    """Run one method's simulation and collect every diffed observable."""
    captured: dict = {}

    def prepare(system, software, sim):
        coverage = DprCoverage(system)
        coverage.start(sim)
        captured["system"] = system
        captured["coverage"] = coverage
        _arm_stimulus(scenario, system, software, sim)

    result = run_system(
        scenario.config(method, backend),
        n_frames=scenario.n_frames,
        prepare=prepare,
    )
    system = captured["system"]
    coverage = captured["coverage"]
    coverage.finalize()
    return SideResult(
        method=method,
        frames_processed=result.frames_processed,
        frames_drawn=result.frames_drawn,
        frames_dropped=result.frames_dropped,
        hung=result.hung,
        detected=result.detected,
        checks=tuple(
            (c.feat_ok, c.vec_ok, c.overlay_ok) for c in result.checks
        ),
        interrupts=dict(system.intc.raised_by_source),
        recovery_actions=len(result.recovery_log),
        monitors=dict(result.monitors),
        dcr=_dcr_snapshot(system),
        coverage={n: p.hits for n, p in coverage.points.items()},
        sim_time_ps=result.sim_time_ps,
        anomalies=list(result.anomalies),
    )


def _classify(
    scenario: FuzzScenario, name: str, vmux_coverage: Dict[str, int]
) -> Tuple[str, Optional[str], str]:
    """Classify one divergent field; returns (class, point, note)."""
    if name.startswith(_STRUCTURAL_PREFIXES):
        point = "bitstream_transfer"
        reason = "reconfiguration machinery only live under ReSim"
    elif scenario.transients and name.startswith(
        _TRANSIENT_SENSITIVE_PREFIXES
    ):
        point = "injection_window"
        reason = (
            "bitstream-path transient "
            f"({', '.join(k for k, _ in scenario.transients)}) "
            "invisible to VMux"
        )
    else:
        return "real", None, ""
    if point not in VMUX_BLIND_POINTS:  # pragma: no cover - config guard
        return "real", None, f"{point} is not a declared VMux blind spot"
    if vmux_coverage.get(point, 0):
        # the blind spot was HIT under VMux — the excuse is void
        return (
            "real",
            None,
            f"claimed blind spot {point} was covered under vmux",
        )
    return "expected", point, reason


def diff_sides(
    scenario: FuzzScenario, resim: SideResult, vmux: SideResult
) -> List[FieldDiff]:
    """Field-by-field diff of the two methods' observables."""
    raw: List[Tuple[str, object, object]] = []

    def compare(name: str, a, b) -> None:
        if a != b:
            raw.append((name, a, b))

    compare("frames_processed", resim.frames_processed, vmux.frames_processed)
    compare("frames_drawn", resim.frames_drawn, vmux.frames_drawn)
    compare("frames_dropped", resim.frames_dropped, vmux.frames_dropped)
    compare("hung", resim.hung, vmux.hung)
    compare("detected", resim.detected, vmux.detected)
    compare("checks", resim.checks, vmux.checks)
    compare("recovery_actions", resim.recovery_actions, vmux.recovery_actions)
    for key in sorted(set(resim.interrupts) | set(vmux.interrupts)):
        compare(
            f"irq:{key}",
            resim.interrupts.get(key, 0),
            vmux.interrupts.get(key, 0),
        )
    for key in sorted(set(resim.monitors) | set(vmux.monitors)):
        compare(
            f"monitor:{key}",
            resim.monitors.get(key, 0),
            vmux.monitors.get(key, 0),
        )
    for key in sorted(set(resim.dcr) | set(vmux.dcr)):
        compare(f"dcr:{key}", resim.dcr.get(key, 0), vmux.dcr.get(key, 0))

    diffs = []
    for name, a, b in raw:
        classification, point, note = _classify(scenario, name, vmux.coverage)
        diffs.append(
            FieldDiff(
                field=name,
                resim=a,
                vmux=b,
                classification=classification,
                cover_point=point,
                note=note,
            )
        )
    return diffs


def run_differential(
    scenario: FuzzScenario, backend: str = "interp"
) -> FuzzRecord:
    """Run one scenario under both methods and classify the divergences.

    ``backend`` picks the kernel execution backend for both sides; the
    record's observables are backend-independent by the codegen parity
    contract, so a differential found under one backend must reproduce
    under the other.
    """
    scenario.validate()
    resim = _run_side(scenario, "resim", backend)
    vmux = _run_side(scenario, "vmux", backend)
    return FuzzRecord(
        scenario=scenario,
        resim=resim,
        vmux=vmux,
        diffs=diff_sides(scenario, resim, vmux),
    )


def _fuzz_task(scenario: FuzzScenario, backend: str = "interp") -> FuzzRecord:
    """Fleet task: module-level and picklable."""
    return run_differential(scenario, backend)


def _failed_record(scenario: FuzzScenario, error: str) -> FuzzRecord:
    """Placeholder for a differential whose fleet task failed/crashed."""
    return FuzzRecord(
        scenario=scenario, resim=None, vmux=None,
        error=f"fleet: run failed ({error})",
    )


# ----------------------------------------------------------------------
# The coverage-closure loop
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """The campaign's merged outcome (canonical JSON = the contract)."""

    seed: int
    budget: int
    wave_size: int
    records: List[FuzzRecord] = field(default_factory=list)
    #: accumulated ReSim cover-point hits, merged in input order
    coverage: Dict[str, int] = field(default_factory=dict)
    stopped_early: bool = False
    #: set by the driver when a failing scenario was shrunk
    shrink: Optional[dict] = None
    #: fleet execution metadata — wall-clock side, excluded from
    #: :meth:`to_json_dict` so report bytes are identical for any jobs
    jobs: int = 1
    worker_crashes: int = 0

    @property
    def target_points(self) -> List[str]:
        return point_names()

    @property
    def never_hit(self) -> List[str]:
        return [
            name
            for name in sorted(self.target_points)
            if not self.coverage.get(name, 0)
        ]

    @property
    def closed(self) -> bool:
        """Every ReSim-reachable cover point saturated."""
        return not self.never_hit

    @property
    def real_failures(self) -> List[int]:
        """Indices (into ``records``) of real-divergence scenarios."""
        return [i for i, r in enumerate(self.records) if r.failed]

    @property
    def ok(self) -> bool:
        return self.closed and not self.real_failures

    def counts(self) -> Dict[str, int]:
        out = {"clean": 0, "expected-divergence": 0, "real-divergence": 0}
        for record in self.records:
            if record.failed:
                out["real-divergence"] += 1
            elif record.diffs:
                out["expected-divergence"] += 1
            else:
                out["clean"] += 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "wave_size": self.wave_size,
            "scenarios_run": len(self.records),
            "stopped_early": self.stopped_early,
            "closed": self.closed,
            "ok": self.ok,
            "counts": dict(sorted(self.counts().items())),
            "coverage": dict(sorted(self.coverage.items())),
            "never_hit": self.never_hit,
            "real_failures": self.real_failures,
            "records": [r.to_json_dict() for r in self.records],
            "shrink": self.shrink,
        }


def run_fuzz_campaign(
    budget: int = 25,
    seed: int = 2013,
    jobs: int = 1,
    wave_size: int = 8,
    inject_divergence: Optional[str] = None,
    fault_injection: Optional[Dict[str, str]] = None,
    backend: str = "interp",
) -> FuzzReport:
    """Generate-and-check until coverage closes or the budget dries.

    Scenarios are generated in waves of ``wave_size`` (fixed —
    independent of ``jobs``, so the set of scenarios executed is too),
    each wave fanned out over the fleet.  After a wave merges (in input
    order), the loop stops early when every ReSim-reachable cover point
    has hit, or when a wave surfaced a real divergence (the caller then
    hands the first failing record to the shrinker).

    ``fault_injection`` is the fleet-crash testing seam, keyed by
    ``fuzz:<index>``.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if wave_size < 1:
        raise ValueError(f"wave_size must be >= 1, got {wave_size}")
    generator = ScenarioGenerator(seed, inject_divergence)
    report = FuzzReport(seed=seed, budget=budget, wave_size=wave_size, jobs=jobs)
    injection = dict(fault_injection or {})

    index = 0
    while index < budget:
        batch = [
            generator.scenario(i)
            for i in range(index, min(index + wave_size, budget))
        ]
        specs = [
            RunSpec(
                f"fuzz:{s.index}",
                _fuzz_task,
                {"scenario": s, "backend": backend},
            )
            for s in batch
        ]
        keyset = {s.key for s in specs}
        wave_injection = {
            k: v for k, v in injection.items() if k in keyset
        } or None
        fleet = run_many(specs, jobs=jobs, fault_injection=wave_injection)
        report.worker_crashes += fleet.worker_crashes
        for scenario, outcome in zip(batch, fleet.outcomes):
            record = (
                outcome.value
                if outcome.ok
                else _failed_record(scenario, outcome.error)
            )
            report.records.append(record)
            if record.resim is not None:
                for name, hits in record.resim.coverage.items():
                    report.coverage[name] = (
                        report.coverage.get(name, 0) + hits
                    )
        index += len(batch)
        if report.real_failures:
            break
        if report.closed:
            report.stopped_early = index < budget
            break
    return report
