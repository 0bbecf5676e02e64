"""Golden-model scoreboards and the run-result record.

The paper's testbench checked engine output by visual inspection of the
video stream; because this reproduction's scenes are synthetic, every
buffer can be checked mechanically against the NumPy golden models:

* the feature image vs :func:`repro.video.census.census_transform`,
* the motion vectors vs :func:`repro.video.matching.match_features`,
* the drawn overlay vs the shared renderer applied to golden vectors.

A :class:`RunResult` additionally collects the *monitor* evidence a
simulation user would see in waveforms/assertions — X leaks past the
isolation module, X on interrupt inputs, DCR daisy-chain corruption,
PLB protocol violations, SimB framing errors, pulses lost into an
unconfigured region — plus hang information.  ``detected`` is true when
any evidence exists: that is the campaign's definition of "the bug was
found in simulation".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..system.software import render_motion_overlay
from ..video.census import census_transform
from ..video.formats import unpack_pixels, unpack_vector_bytes
from ..video.matching import match_features

__all__ = ["FrameCheck", "SystemScoreboard", "RunResult"]


@dataclass(frozen=True)
class FrameCheck:
    """Golden comparison outcome for one completed frame."""

    frame: int
    feat_ok: bool
    vec_ok: bool
    overlay_ok: bool

    @property
    def ok(self) -> bool:
        return self.feat_ok and self.vec_ok and self.overlay_ok


class SystemScoreboard:
    """Checks every frame the software reports as drawn."""

    def __init__(self, system, software):
        self.system = system
        self.software = software
        self.checks: List[FrameCheck] = []

    def start(self, sim) -> None:
        sim.fork(self._watch(), "scoreboard", owner=self.system)

    def _watch(self):
        while True:
            yield self.software.frame_drawn.wait()
            frame = self.software.frame_drawn.data
            self.checks.append(self.check_frame(frame))

    # ------------------------------------------------------------------
    # Golden comparisons (backdoor memory reads, zero simulated time)
    # ------------------------------------------------------------------
    def _read_bytes(self, base: int, count: int) -> np.ndarray:
        words = self.system.memory.dump_words(base, count // 4)
        return unpack_pixels(words)

    def check_frame(self, f: int) -> FrameCheck:
        system = self.system
        cfg = system.config
        mm = system.memory_map
        h, w = cfg.height, cfg.width

        golden_feat = census_transform(system.sequence.frame(f))
        feat = self._read_bytes(mm.feat[f % 2], mm.frame_bytes).reshape(h, w)
        feat_ok = bool(np.array_equal(feat, golden_feat))

        prev_frame = f - 1 if f > 0 else f
        golden_prev = census_transform(system.sequence.frame(prev_frame))
        gdx, gdy, gvalid = match_features(
            golden_prev, golden_feat, radius=cfg.radius
        )
        vec_words = system.memory.dump_words(mm.vec[f % 2], h * w // 4)
        dx, dy, valid = unpack_vector_bytes(vec_words, (h, w), cfg.radius)
        vec_ok = bool(
            np.array_equal(dx, gdx)
            and np.array_equal(dy, gdy)
            and np.array_equal(valid, gvalid)
        )

        golden_overlay = render_motion_overlay(gdx, gdy, gvalid)
        overlay = self._read_bytes(mm.out[f % 2], mm.frame_bytes).reshape(h, w)
        overlay_ok = bool(np.array_equal(overlay, golden_overlay))

        return FrameCheck(f, feat_ok, vec_ok, overlay_ok)


@dataclass
class RunResult:
    """Everything observed in one simulated system run."""

    method: str
    faults: tuple
    frames_requested: int
    frames_processed: int = 0
    frames_drawn: int = 0
    #: frames sacrificed by the graceful-degradation recovery path
    frames_dropped: int = 0
    hung: bool = False
    checks: List[FrameCheck] = field(default_factory=list)
    software_anomalies: List[str] = field(default_factory=list)
    monitors: Dict[str, int] = field(default_factory=dict)
    #: (time_ps, message) recovery actions the driver took
    recovery_log: List[tuple] = field(default_factory=list)
    #: (time_ps, message) simulator warnings (framing errors, watchdog
    #: aborts, ...) — the detection evidence trail
    warnings: List[tuple] = field(default_factory=list)
    sim_time_ps: int = 0
    kernel_events: int = 0
    elapsed_s: float = 0.0

    @property
    def data_mismatches(self) -> List[str]:
        out = []
        for c in self.checks:
            if not c.feat_ok:
                out.append(f"frame {c.frame}: feature image mismatch")
            if not c.vec_ok:
                out.append(f"frame {c.frame}: motion vectors mismatch")
            if not c.overlay_ok:
                out.append(f"frame {c.frame}: drawn overlay mismatch")
        return out

    @property
    def anomalies(self) -> List[str]:
        out = list(self.software_anomalies)
        out.extend(self.data_mismatches)
        for name, count in sorted(self.monitors.items()):
            if count:
                out.append(f"monitor {name}: {count}")
        if self.frames_dropped:
            out.append(
                f"frames dropped by degraded recovery: {self.frames_dropped}"
            )
        if self.hung:
            out.append(
                f"system hang: {self.frames_drawn}/{self.frames_requested} "
                f"frames completed"
            )
        elif self.frames_drawn + self.frames_dropped < self.frames_requested:
            out.append(
                f"run aborted after {self.frames_drawn}/"
                f"{self.frames_requested} frames"
            )
        return out

    @property
    def detected(self) -> bool:
        """True when simulation produced any evidence of misbehaviour."""
        return bool(self.anomalies)

    def summary(self) -> str:
        status = "FAIL" if self.detected else "PASS"
        return (
            f"[{self.method}] faults={list(self.faults) or 'none'} "
            f"{self.frames_drawn}/{self.frames_requested} frames -> {status}"
        )
