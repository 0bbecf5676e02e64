"""Transient-fault catalogue and the seeded soak campaign.

Where :mod:`repro.verif.faults` re-creates *design* bugs (deterministic
defects that are present from power-up), this module injects
*transients*: one-shot events — a flipped bitstream word in memory, a
DMA that stops being granted, a burst of X on the RR boundary — that a
correct design should detect and *recover* from.  They exercise the
fault-tolerance stack (SimB CRC, IcapCTRL watchdog + truncation
detection, the driver's bounded-retry / graceful-degradation policy)
the way the Table III bugs exercise the baseline machinery.

:func:`run_soak_campaign` injects each transient at a randomized —
seeded, hence reproducible — instant of a multi-frame run, under both
Virtual Multiplexing and ReSim, and classifies every run:

* ``recovered`` — the fault left evidence (warnings, monitors, retries
  or dropped frames) and the system still completed the workload with
  scoreboard-correct output and accurate dropped-frame accounting,
* ``masked`` — the fault had no observable effect (the VMux rows for
  bitstream-datapath transients: the machinery that would feel them is
  never exercised — the paper's blind spot, §IV),
* ``unrecovered`` — the run aborted or hung; reported, never silent,
* ``silent-corruption`` — wrong output with *no* detection evidence;
  the one outcome the stack must never produce (``--check`` fails).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exec.fleet import RunSpec, run_many
from ..kernel import Timer
from ..reconfig.simb import TYPE2_LEN_TAG, simb_header_words
from ..system.autovision import SystemConfig
from ..system.scenarios import scenario
from .campaign import failed_run_result, run_system
from .scoreboard import RunResult

__all__ = [
    "TransientSpec",
    "TRANSIENTS",
    "SoakRun",
    "SoakReport",
    "run_soak_campaign",
]


@dataclass(frozen=True)
class TransientSpec:
    """One injectable transient fault."""

    key: str
    title: str
    description: str
    #: ``arm(system, software, sim, rng, at_ps)`` — forks the process
    #: that applies the fault at ``at_ps``
    arm: Callable


def _pick_bitstream(system, rng: random.Random) -> Tuple[int, int]:
    """(module_id, byte base) of one of the two SimB images."""
    module_id = rng.choice([system.cie.ENGINE_ID, system.me.ENGINE_ID])
    return module_id, system.bitstream_base(module_id)


def _arm_payload_bitflip(system, software, sim, rng, at_ps):
    """Flip one bit of one payload word of a SimB image in memory."""
    cfg = system.config
    _, base = _pick_bitstream(system, rng)
    header = simb_header_words(crc=cfg.fault_tolerance)
    word = header + rng.randrange(cfg.simb_payload_words)
    bit = rng.randrange(32)

    def proc():
        yield Timer(at_ps)
        addr = base + word * 4
        value = int(system.memory.dump_words(addr, 1)[0]) ^ (1 << bit)
        system.memory.load_words(addr, np.array([value], dtype=np.uint32))

    sim.fork(proc(), "transient.payload_bitflip")


def _arm_truncated_simb(system, software, sim, rng, at_ps):
    """Corrupt the FDRI length word to claim more payload than exists.

    The DMA then ends while the ICAP is still expecting payload — the
    classic truncated-transfer scenario of §IV-B, now as a transient.
    """
    cfg = system.config
    _, base = _pick_bitstream(system, rng)
    len_word = simb_header_words(crc=cfg.fault_tolerance) - 1
    extra = 64 + rng.randrange(64)

    def proc():
        yield Timer(at_ps)
        addr = base + len_word * 4
        claimed = TYPE2_LEN_TAG | (cfg.simb_payload_words + extra)
        system.memory.load_words(addr, np.array([claimed], dtype=np.uint32))

    sim.fork(proc(), "transient.truncated_simb")


def _arm_dma_stall(system, software, sim, rng, at_ps):
    """Freeze the IcapCTRL's fetch engine (lost bus grant) until the
    watchdog aborts the transfer — or forever, without one."""

    def proc():
        yield Timer(at_ps)
        system.icapctrl.stall_fetch = True

    sim.fork(proc(), "transient.dma_stall")


def _arm_fifo_backpressure(system, software, sim, rng, at_ps):
    """Stall the ICAP-side drain for a bounded spike.

    Short spikes are absorbed by the FIFO; a spike longer than the
    watchdog window gets the transfer aborted and retried.
    """
    window = max(system.icapctrl.watchdog_cycles, 64)
    cycles = window // 2 + rng.randrange(2 * window)
    duration_ps = cycles * system.bus_clock.period

    def proc():
        yield Timer(at_ps)
        system.icapctrl.stall_drain = True
        yield Timer(duration_ps)
        system.icapctrl.stall_drain = False

    sim.fork(proc(), "transient.fifo_backpressure")


def _arm_x_burst(system, software, sim, rng, at_ps):
    """Drive X on the slot outputs for a bounded burst (SEU glitch).

    While isolation is armed the burst must be absorbed (zero leaks);
    outside a reconfiguration it leaks to the static side and the
    monitors flag it.  Releasing uses the ownership-checked clear so a
    real reconfiguration's injector is never stomped.
    """
    cycles = 64 + rng.randrange(512)
    duration_ps = cycles * system.bus_clock.period

    def burst_values() -> Dict[str, object]:
        return {}  # empty dict: the slot mux drives X on every output

    def proc():
        yield Timer(at_ps)
        system.slot.set_injection(burst_values)
        yield Timer(duration_ps)
        system.slot.clear_injection_if(burst_values)

    sim.fork(proc(), "transient.x_burst")


TRANSIENTS: Dict[str, TransientSpec] = {
    t.key: t
    for t in (
        TransientSpec(
            "payload_bitflip",
            "SimB payload bit-flip",
            "single-event upset in the bitstream image in main memory; "
            "caught by the SimB CRC, recovered by reloading the image",
            _arm_payload_bitflip,
        ),
        TransientSpec(
            "truncated_simb",
            "truncated SimB",
            "FDRI length corrupted to exceed the transfer; caught by "
            "truncation detection at end-of-DMA",
            _arm_truncated_simb,
        ),
        TransientSpec(
            "dma_stall",
            "DMA stall",
            "the fetch engine stops being granted the bus; caught and "
            "aborted by the transfer watchdog",
            _arm_dma_stall,
        ),
        TransientSpec(
            "fifo_backpressure",
            "FIFO backpressure spike",
            "the ICAP stops accepting words for a bounded spike; either "
            "absorbed by the FIFO or aborted by the watchdog",
            _arm_fifo_backpressure,
        ),
        TransientSpec(
            "x_burst",
            "X burst on slot outputs",
            "a glitch drives X on the RR boundary; absorbed when "
            "isolation is armed, flagged by the X monitors otherwise",
            _arm_x_burst,
        ),
    )
}


@dataclass
class SoakRun:
    """One (method, transient) soak run and its fate."""

    method: str
    transient: str
    injected_at_ps: int
    detected_at_ps: Optional[int]
    recovered_at_ps: Optional[int]
    outcome: str  # "recovered" | "masked" | "unrecovered" | "silent-corruption"
    result: RunResult

    @property
    def detection_latency_ps(self) -> Optional[int]:
        if self.detected_at_ps is None:
            return None
        return max(0, self.detected_at_ps - self.injected_at_ps)

    @property
    def recovery_latency_ps(self) -> Optional[int]:
        if self.recovered_at_ps is None or self.detected_at_ps is None:
            return None
        return max(0, self.recovered_at_ps - self.detected_at_ps)


@dataclass
class SoakReport:
    """The full campaign: every transient under every method."""

    seed: int
    frames: int
    methods: Tuple[str, ...]
    windows_ps: Dict[str, int]
    runs: List[SoakRun]
    #: fleet execution metadata — excluded from :meth:`to_json_dict`
    #: so report bytes are identical for any ``jobs`` value
    jobs: int = 1
    worker_crashes: int = 0

    @property
    def ok(self) -> bool:
        """No silent corruption and no wedged simulation."""
        return not any(
            r.outcome == "silent-corruption" or r.result.hung for r in self.runs
        )

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.runs:
            out[r.outcome] = out.get(r.outcome, 0) + 1
        return out

    def to_json_dict(self) -> dict:
        """Canonical, wall-clock-free representation (determinism test)."""
        return {
            "seed": self.seed,
            "frames": self.frames,
            "methods": list(self.methods),
            "windows_ps": dict(sorted(self.windows_ps.items())),
            "ok": self.ok,
            "counts": dict(sorted(self.counts().items())),
            "runs": [
                {
                    "method": r.method,
                    "transient": r.transient,
                    "outcome": r.outcome,
                    "injected_at_ps": r.injected_at_ps,
                    "detected_at_ps": r.detected_at_ps,
                    "detection_latency_ps": r.detection_latency_ps,
                    "recovered_at_ps": r.recovered_at_ps,
                    "recovery_latency_ps": r.recovery_latency_ps,
                    "frames_requested": r.result.frames_requested,
                    "frames_drawn": r.result.frames_drawn,
                    "frames_dropped": r.result.frames_dropped,
                    "hung": r.result.hung,
                    "retries": _retries_of(r.result),
                    "anomalies": len(r.result.anomalies),
                    "monitors": dict(sorted(r.result.monitors.items())),
                }
                for r in self.runs
            ],
        }


def _retries_of(result: RunResult) -> int:
    return sum(
        1 for _, msg in result.recovery_log if "attempt" in msg or "degraded" in msg
    )


def _first_detection_ps(
    result: RunResult, system, injected_at: int
) -> Optional[int]:
    """Earliest piece of detection evidence at/after the injection."""
    candidates = [t for t, _ in result.warnings if t >= injected_at]
    for t in (
        system.isolation.first_x_leak_at,
        system.intc.first_x_violation_at,
    ):
        if t is not None and t >= injected_at:
            candidates.append(t)
    for t, _ in system.icapctrl.error_events:
        if t >= injected_at:
            candidates.append(t)
    return min(candidates) if candidates else None


def _recovery_ps(result: RunResult) -> Optional[int]:
    """Time of the last successful recovery action, if any."""
    times = [
        t
        for t, msg in result.recovery_log
        if "recovered" in msg or "degraded" in msg
    ]
    return max(times) if times else None


def _classify(result: RunResult, detected: bool, frames: int) -> str:
    completed = (
        not result.hung
        and result.frames_drawn + result.frames_dropped >= frames
    )
    checks_ok = all(c.ok for c in result.checks)
    if not completed:
        return "unrecovered"
    if not checks_ok:
        return "unrecovered" if detected else "silent-corruption"
    if not detected and not result.frames_dropped:
        return "masked"
    return "recovered"


def _soak_calibrate(config: SystemConfig, frames: int) -> int:
    """Fleet task: one clean run's total simulated time (the window)."""
    return run_system(config, n_frames=frames).sim_time_ps


def _soak_one(
    config: SystemConfig,
    frames: int,
    seed: int,
    method: str,
    key: str,
    window_ps: int,
) -> SoakRun:
    """Fleet task: inject one transient and classify the run.

    The classification needs the live system object (monitor
    first-event timestamps), so it happens here — worker-side — and
    only the pure-data :class:`SoakRun` crosses the process boundary.
    """
    spec = TRANSIENTS[key]
    rng = random.Random(f"{seed}:{method}:{key}")
    # inject somewhere inside the active 5%..90% of the window
    at_ps = int((0.05 + 0.85 * rng.random()) * window_ps)
    captured: dict = {}

    def prepare(system, software, sim):
        captured["system"] = system
        spec.arm(system, software, sim, rng, at_ps)

    result = run_system(config, n_frames=frames, prepare=prepare)
    system = captured["system"]
    detected_at = _first_detection_ps(result, system, at_ps)
    recovered_at = _recovery_ps(result)
    outcome = _classify(result, detected_at is not None, frames)
    return SoakRun(
        method=method,
        transient=key,
        injected_at_ps=at_ps,
        detected_at_ps=detected_at,
        recovered_at_ps=recovered_at,
        outcome=outcome,
        result=result,
    )


def run_soak_campaign(
    methods: Sequence[str] = ("resim", "vmux"),
    frames: int = 2,
    seed: int = 7,
    transients: Optional[Sequence[str]] = None,
    base_config: Optional[SystemConfig] = None,
    jobs: int = 1,
    fault_injection: Optional[Dict[str, str]] = None,
) -> SoakReport:
    """Inject every transient at a seeded random instant of a run.

    One clean calibration run per method establishes the injection
    window (total simulated time of the fault-free workload); each
    transient then gets its own :class:`random.Random` seeded from
    ``f"{seed}:{method}:{key}"`` — string seeding is hash-stable, so
    reports are byte-identical across processes for the same seed.

    The calibration runs execute as one fleet phase and the transient
    runs as a second; with ``jobs=1`` both phases run serially
    in-process, and the report is byte-identical for any ``jobs``.
    ``fault_injection``
    reaches the fleet (crash testing seam; calibration keys are
    ``calibrate:M``, transient keys ``M:K``).
    """
    if base_config is None:
        base_config = scenario("tiny-ft")
    keys = list(transients) if transients is not None else list(TRANSIENTS)
    for key in keys:
        if key not in TRANSIENTS:
            raise KeyError(
                f"unknown transient {key!r}; available: "
                f"{', '.join(sorted(TRANSIENTS))}"
            )
    configs = {m: replace(base_config, method=m) for m in methods}
    injection = dict(fault_injection or {})

    def injection_for(specs: List[RunSpec]) -> Optional[Dict[str, str]]:
        keyset = {s.key for s in specs}
        return {k: v for k, v in injection.items() if k in keyset} or None

    # phase 1: the per-method injection windows (fault-free runs)
    cal_specs = [
        RunSpec(
            f"calibrate:{m}",
            _soak_calibrate,
            {"config": configs[m], "frames": frames},
        )
        for m in methods
    ]
    cal = run_many(
        cal_specs, jobs=jobs, fault_injection=injection_for(cal_specs)
    )
    windows: Dict[str, int] = {}
    for method in methods:
        outcome = cal.value_of(f"calibrate:{method}")
        if outcome is None:
            failure = next(o for o in cal.outcomes if o.key == f"calibrate:{method}")
            raise RuntimeError(
                f"soak calibration run for {method!r} failed: {failure.error}"
            )
        windows[method] = outcome

    # phase 2: every (method, transient) pair
    soak_specs = [
        RunSpec(
            f"{method}:{key}",
            _soak_one,
            {
                "config": configs[method],
                "frames": frames,
                "seed": seed,
                "method": method,
                "key": key,
                "window_ps": windows[method],
            },
        )
        for method in methods
        for key in keys
    ]
    fleet = run_many(
        soak_specs, jobs=jobs, fault_injection=injection_for(soak_specs)
    )
    runs: List[SoakRun] = []
    for outcome in fleet.outcomes:
        if outcome.ok:
            runs.append(outcome.value)
        else:
            method, key = outcome.key.split(":", 1)
            runs.append(
                SoakRun(
                    method=method,
                    transient=key,
                    injected_at_ps=0,
                    detected_at_ps=None,
                    recovered_at_ps=None,
                    outcome="unrecovered",
                    result=failed_run_result(
                        configs[method], frames, outcome.error
                    ),
                )
            )
    return SoakReport(
        seed=seed,
        frames=frames,
        methods=tuple(methods),
        windows_ps=windows,
        runs=runs,
        jobs=fleet.jobs,
        worker_crashes=cal.worker_crashes + fleet.worker_crashes,
    )
