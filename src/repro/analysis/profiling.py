"""Per-phase simulation-cost accounting — the machinery behind Table II.

The paper reports, for one video frame, each execution stage's
*simulated* time and the *elapsed* wall-clock time ModelSim spent on it,
observing that elapsed time grows with both simulated time and signal
activity (the CIE simulates slower than the ME despite covering less
simulated time, §V).

:func:`profile_one_frame` reproduces that measurement: it steps the
simulation in small quanta and attributes each quantum's wall time and
kernel events to the phase the software is currently executing
(``video_in`` / ``cie`` / ``dpr`` / ``me`` / ``isr_draw``).  Running a
single frame keeps the pipeline un-overlapped so phases are disjoint,
matching the paper's per-stage accounting.

:func:`measure_artifact_overhead` reproduces the §V overhead numbers by
attributing kernel events (and, in profile mode, process wall time) to
the Engine_wrapper multiplexer and to the ReSim simulation-only
artifacts, as fractions of the whole run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..system.autovision import AutoVisionSystem, SystemConfig
from ..system.software import AutoVisionSoftware
from ..verif.campaign import run_system

__all__ = [
    "PhaseStats",
    "FrameProfile",
    "profile_one_frame",
    "OverheadProfile",
    "measure_artifact_overhead",
]

#: Table II rows, in the paper's order
PHASE_ORDER = ("cie", "me", "isr_draw", "dpr")
PHASE_LABELS = {
    "cie": "CensusImg Engine",
    "me": "Matching Engine",
    "isr_draw": "PowerPC Interrupt Handler",
    "dpr": "Dynamic Partial Reconfiguration",
    "video_in": "Video input DMA",
    "idle": "idle",
}


@dataclass
class PhaseStats:
    """Cost of one execution stage of the frame."""

    name: str
    simulated_ps: int = 0
    elapsed_s: float = 0.0
    events: int = 0

    @property
    def simulated_ms(self) -> float:
        return self.simulated_ps / 1e9

    @property
    def events_per_simulated_us(self) -> float:
        if self.simulated_ps == 0:
            return 0.0
        return self.events / (self.simulated_ps / 1e6)


@dataclass
class FrameProfile:
    """The Table II analogue for one simulated frame."""

    config: SystemConfig
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    total_simulated_ps: int = 0
    total_elapsed_s: float = 0.0
    total_events: int = 0
    clean: bool = True

    def phase(self, name: str) -> PhaseStats:
        return self.phases.setdefault(name, PhaseStats(name))

    def rows(self):
        """(label, simulated ms, elapsed s, events) per Table II row."""
        out = []
        for key in PHASE_ORDER:
            p = self.phase(key)
            out.append(
                (PHASE_LABELS[key], p.simulated_ms, p.elapsed_s, p.events)
            )
        out.append(
            (
                "Overall",
                self.total_simulated_ps / 1e9,
                self.total_elapsed_s,
                self.total_events,
            )
        )
        return out


def profile_one_frame(
    config: Optional[SystemConfig] = None,
    quantum_ps: int = 2_000_000,
) -> FrameProfile:
    """Simulate one frame and attribute cost to each execution stage."""
    if config is None:
        config = SystemConfig()
    system = AutoVisionSystem(config)
    software = AutoVisionSoftware(system)
    sim = system.build()
    profile = FrameProfile(config)

    sim.fork(software.run(1), "software.main", owner=software)
    guard_ps = 400 * config.width * config.height * system.bus_clock.period
    start_ps = sim.time
    stats = sim.stats
    last_events = stats.events
    while not software.finished and sim.time - start_ps < guard_ps:
        phase_name = software.current_phase
        t0 = time.perf_counter()
        sim.run(until=sim.time + quantum_ps)
        elapsed = time.perf_counter() - t0
        events = stats.events - last_events
        last_events += events
        p = profile.phase(phase_name)
        p.simulated_ps += quantum_ps
        p.elapsed_s += elapsed
        p.events += events
        profile.total_simulated_ps += quantum_ps
        profile.total_elapsed_s += elapsed
        profile.total_events += events
    profile.clean = software.finished and not software.anomalies
    return profile


@dataclass
class OverheadProfile:
    """§V overhead attribution: mux and artifacts vs the whole run."""

    total_events: int
    mux_events: int
    artifact_events: int
    total_elapsed_ns: int = 0
    mux_elapsed_ns: int = 0
    artifact_elapsed_ns: int = 0

    @property
    def mux_event_share(self) -> float:
        return self.mux_events / self.total_events if self.total_events else 0.0

    @property
    def artifact_event_share(self) -> float:
        return (
            self.artifact_events / self.total_events if self.total_events else 0.0
        )

    @property
    def mux_time_share(self) -> float:
        if not self.total_elapsed_ns:
            return 0.0
        return self.mux_elapsed_ns / self.total_elapsed_ns

    @property
    def artifact_time_share(self) -> float:
        if not self.total_elapsed_ns:
            return 0.0
        return self.artifact_elapsed_ns / self.total_elapsed_ns


def measure_artifact_overhead(
    config: Optional[SystemConfig] = None, n_frames: int = 1
) -> OverheadProfile:
    """Run the system and attribute cost to mux/artifact modules."""
    if config is None:
        config = SystemConfig(profile=True)
    captured = {}

    def prepare(system, software, sim):
        captured.update(system=system, sim=sim)

    run_system(config, n_frames, prepare=prepare)
    system, sim = captured["system"], captured["sim"]

    def subtree_events(module) -> int:
        act = module.activity()
        return act["events"]

    mux_modules = [system.slot]
    artifact_modules = []
    if system.artifacts is not None:
        artifact_modules.append(system.artifacts.icap)
        artifact_modules.extend(system.artifacts.portals.values())
        artifact_modules.extend(system.artifacts.injectors.values())
    if system.vmux is not None:
        artifact_modules.append(system.vmux)

    mux_events = sum(subtree_events(m) for m in mux_modules)
    artifact_events = sum(subtree_events(m) for m in artifact_modules)
    profile = OverheadProfile(
        total_events=sim.stats.events,
        mux_events=mux_events,
        artifact_events=artifact_events,
    )
    if config.profile:
        total_ns = sum(sim.stats.elapsed_ns_by_owner.values())
        profile.total_elapsed_ns = total_ns
        profile.mux_elapsed_ns = sum(m.elapsed_ns() for m in mux_modules)
        profile.artifact_elapsed_ns = sum(
            m.elapsed_ns() for m in artifact_modules
        )
    return profile
