"""DPR functional coverage — making "covers all aspects of DPR" measurable.

The paper argues ReSim-based simulation "covers all aspects of DPR"
while Virtual Multiplexing models module swapping only.  This collector
turns that claim into a coverage model: a set of *cover points* over
the reconfiguration machinery, sampled live from the running system.

==========================  =================================================
cover point                 what must be observed
==========================  =================================================
``swap_to_<module>``        a completed configuration of each module
``bitstream_transfer``      the IcapCTRL moved a real bitstream
``injection_window``        errors driven while a payload was in flight
``isolation_armed``         isolation enabled during an injection window
``isolation_transparent``   isolation passing data outside reconfiguration
``before/during/after``     activity observed in each reconfiguration phase
``intra_frame_swap``        two reconfigurations within one frame
``fifo_backpressure``       the IcapCTRL FIFO filled and throttled
``reset_after_swap``        a freshly configured module was reset
``start_after_reconfig``    a freshly configured module processed a frame
==========================  =================================================

Under VMux most points can never hit — exactly the paper's argument,
asserted by the coverage tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["DprCoverage", "GENERIC_POINTS", "point_names"]

#: the method-independent cover points; ``swap_to_<module>`` points are
#: added per configured engine on top of these
GENERIC_POINTS: Tuple[Tuple[str, str], ...] = (
    ("bitstream_transfer", "IcapCTRL completed a bitstream DMA"),
    ("injection_window", "error injection active during a transfer"),
    ("isolation_armed", "isolation enabled while injecting"),
    ("isolation_transparent", "isolation passed data when idle"),
    ("phase_before", "engine activity before a reconfiguration"),
    ("phase_during", "region observed mid-reconfiguration"),
    ("phase_after", "engine activity after a reconfiguration"),
    ("intra_frame_swap", ">= 2 reconfigurations in one frame"),
    ("fifo_backpressure", "IcapCTRL FIFO reached its depth"),
    ("reset_after_swap", "freshly configured module was reset"),
    ("start_after_reconfig", "freshly configured module ran a frame"),
)


def point_names() -> List[str]:
    """Every cover-point name the demonstrator (CIE and ME) declares.

    Lets coverage consumers (the fuzzer's closure loop, CI gates) know
    the full point set without building a system first.
    """
    return [f"swap_to_{name}" for name in ("cie", "me")] + [
        name for name, _ in GENERIC_POINTS
    ]


@dataclass
class CoverPoint:
    name: str
    hits: int = 0
    description: str = ""

    @property
    def covered(self) -> bool:
        return self.hits > 0


class DprCoverage:
    """Samples DPR cover points from a built AutoVision system."""

    def __init__(self, system):
        self.system = system
        self.points: Dict[str, CoverPoint] = {}
        for engine in system.slot.engines.values():
            self._declare(
                f"swap_to_{engine.name}",
                f"module {engine.name} configured into the region",
            )
        for name, desc in GENERIC_POINTS:
            self._declare(name, desc)

    def _declare(self, name: str, description: str) -> None:
        self.points[name] = CoverPoint(name, description=description)

    def hit(self, name: str, count: int = 1) -> None:
        self.points[name].hits += count

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def start(self, sim) -> None:
        """Fork a sampling process into the simulation."""
        sim.fork(self._sampler(), "dpr_coverage", owner=self.system)

    def _sampler(self):
        from ..kernel import Timer

        system = self.system
        slot = system.slot
        while True:
            yield Timer(1_000_000)  # sample every simulated microsecond
            if slot.injecting:
                self.hit("phase_during")
                self.hit("injection_window")
                if system.isolation.enabled:
                    self.hit("isolation_armed")
            elif slot.active is not None and slot.active.busy_out.is_high:
                if self._any_swaps():
                    self.hit("phase_after")
                else:
                    self.hit("phase_before")
                if not system.isolation.enabled:
                    self.hit("isolation_transparent")

    def _any_swaps(self) -> bool:
        if self.system.artifacts is not None:
            return any(
                p.reconfigurations > 0
                for p in self.system.artifacts.portals.values()
            )
        if self.system.dcs is not None:
            return self.system.dcs.swaps > 0
        return self.system.vmux is not None and self.system.vmux.swaps > 1

    # ------------------------------------------------------------------
    # Finalization from end-of-run counters
    # ------------------------------------------------------------------
    def finalize(self, software=None) -> None:
        """Fold end-of-run counters into the cover points."""
        system = self.system
        if system.artifacts is not None:
            for portal in system.artifacts.portals.values():
                for rec in portal.timeline:
                    if rec.kind == "swap" and rec.module_id is not None:
                        engine = system.slot.engines.get(rec.module_id)
                        if engine is not None:
                            self.hit(f"swap_to_{engine.name}")
        elif system.vmux is not None:
            # vmux swaps: count signature-driven selections
            if system.vmux.swaps:
                if system.slot.active is not None:
                    self.hit(f"swap_to_{system.slot.active.name}")
        if system.icapctrl.transfers_completed:
            self.hit("bitstream_transfer", system.icapctrl.transfers_completed)
        if system.icapctrl.fifo_high_water >= system.icapctrl.FIFO_DEPTH:
            self.hit("fifo_backpressure")
        # per-frame intra-frame swaps
        if system.artifacts is not None:
            portal = next(iter(system.artifacts.portals.values()))
            if portal.reconfigurations >= 2:
                self.hit("intra_frame_swap")
        # reset/start after a real reconfiguration
        if system.artifacts is not None:
            portal = next(iter(system.artifacts.portals.values()))
            if portal.reconfigurations:
                me = system.me
                if me.frames_processed and not me.frames_corrupted:
                    self.hit("reset_after_swap")
                    self.hit("start_after_reconfig")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def covered(self) -> int:
        return sum(1 for p in self.points.values() if p.covered)

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def score(self) -> float:
        return self.covered / self.total if self.total else 0.0

    def missing_points(self) -> List[CoverPoint]:
        """The never-hit points themselves (name + description)."""
        return [p for _, p in sorted(self.points.items()) if not p.covered]

    def to_json_dict(self) -> dict:
        """Canonical representation for machine-readable reports."""
        return {
            "covered": self.covered,
            "total": self.total,
            "hits": {name: p.hits for name, p in sorted(self.points.items())},
            "never_hit": [p.name for p in self.missing_points()],
        }

    def report(self) -> str:
        lines = [f"DPR coverage: {self.covered}/{self.total} ({self.score:.0%})"]
        for name, p in sorted(self.points.items()):
            mark = "x" if p.covered else " "
            lines.append(f"  [{mark}] {name:22s} {p.description} ({p.hits})")
        never = self.missing_points()
        if never:
            lines.append(f"never hit ({len(never)}):")
            for p in never:
                lines.append(f"  - {p.name}: {p.description}")
        return "\n".join(lines)
