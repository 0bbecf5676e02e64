"""§V-B — debug turnaround: simulation vs on-chip debugging.

The paper's comparison: every bug in the study surfaced within the
first 2-4 simulated frames, so the worst-case simulation turnaround is
4 frames x 11 min = 44 min per iteration; on-chip debugging costs at
least one implementation + bitstream-generation run (52 min measured on
their host) per probe change, and typically several iterations.

This bench measures frames-to-detect live for every bug, takes the
per-frame simulation cost from a measured clean run, and compares the
resulting worst-case turnaround against the on-chip model with the
paper's 52/11 cost ratio carried over.  The measured per-frame cost
depends on the host, so the turnaround in seconds is printed only.
"""

import pytest

from repro.analysis import format_table
from repro.system import SystemConfig
from repro.verif import BUGS, run_system

from .conftest import CAMPAIGN_GEOMETRY, publish

#: the paper's measured costs (minutes)
PAPER_SIM_MIN_PER_FRAME = 11.0
PAPER_ONCHIP_MIN_PER_ITERATION = 52.0
MAX_FRAMES = 4


def frames_to_detect(key: str) -> int:
    """Smallest frame budget at which the bug is detected (resim)."""
    method = "resim"
    for frames in range(1, MAX_FRAMES + 1):
        res = run_system(
            SystemConfig(
                method=method, faults=frozenset({key}), **CAMPAIGN_GEOMETRY
            ),
            n_frames=frames,
        )
        if res.detected:
            return frames
    return MAX_FRAMES + 1


@pytest.fixture(scope="module")
def detection_data():
    keys = [k for k in BUGS if not BUGS[k].is_false_alarm]
    clean = run_system(SystemConfig(**CAMPAIGN_GEOMETRY), n_frames=2)
    per_frame_s = clean.elapsed_s / clean.frames_drawn
    return {k: frames_to_detect(k) for k in keys}, per_frame_s


def test_turnaround_comparison(benchmark, detection_data):
    frames, per_frame_s = detection_data

    def one_detection():
        return frames_to_detect("dpr.4")

    benchmark.pedantic(one_detection, rounds=1, iterations=1)

    worst = max(frames.values())
    rows = [
        (key, BUGS[key].paper_ref[:28], n) for key, n in sorted(frames.items())
    ]
    text = format_table(
        ["Bug", "Paper ref", "Frames to detect"],
        rows,
        title="§V-B — frames needed to expose each bug in simulation",
    )
    print(
        f"\nsim turnaround (host-dependent, not committed): "
        f"{per_frame_s:.2f} s per frame, worst case "
        f"{worst * per_frame_s:.2f} s"
    )
    sim_paper = worst * PAPER_SIM_MIN_PER_FRAME
    text += (
        f"\nworst case: {worst} frames x {PAPER_SIM_MIN_PER_FRAME:.0f} min "
        f"(paper per-frame cost) = {sim_paper:.0f} min per simulation "
        f"iteration\non-chip: >= {PAPER_ONCHIP_MIN_PER_ITERATION:.0f} min "
        f"per iteration (implementation + bitgen), several iterations "
        f"typically needed\nsimulation wins: {sim_paper:.0f} < "
        f"{PAPER_ONCHIP_MIN_PER_ITERATION:.0f}"
    )
    publish("turnaround", text, benchmark)
    assert worst <= MAX_FRAMES
    assert worst * PAPER_SIM_MIN_PER_FRAME < PAPER_ONCHIP_MIN_PER_ITERATION


def test_all_bugs_detected_within_four_frames(detection_data):
    """'All bugs identified in this study were detected within the
    first 2-4 frames.'"""
    frames, _ = detection_data
    assert max(frames.values()) <= MAX_FRAMES


def test_simulation_turnaround_beats_onchip(detection_data):
    frames, _ = detection_data
    worst_min = max(frames.values()) * PAPER_SIM_MIN_PER_FRAME
    assert worst_min < PAPER_ONCHIP_MIN_PER_ITERATION
