"""§V — simulation overhead of ReSim's simulation-only layer.

The paper profiles ModelSim and finds 1.4% of simulation time in the
Engine_wrapper multiplexer (triggered by engine-IO toggles) and 0.3% in
the other artifacts (Extended Portal, error injectors) — "trivial"
overhead.  This bench reproduces the attribution with the kernel's
per-module accounting: event share for both, wall-clock share for the
mux (the artifacts piggyback on other modules' processes, so their
event share is the meaningful number).  The committed table holds the
event shares; the wall-clock shares depend on the host and are printed
only.
"""

import pytest

from repro.analysis import format_table, measure_artifact_overhead
from repro.system import SystemConfig

from .conftest import BENCH_GEOMETRY, publish


@pytest.fixture(scope="module")
def overhead():
    config = SystemConfig(video_backdoor=True, profile=True, **BENCH_GEOMETRY)
    return measure_artifact_overhead(config)


def test_overhead_report(benchmark, overhead):
    config = SystemConfig(video_backdoor=True, profile=True, **BENCH_GEOMETRY)
    benchmark.pedantic(
        measure_artifact_overhead, args=(config,), rounds=1, iterations=1
    )
    mux_event = overhead.mux_event_share
    artifact_event = overhead.artifact_event_share
    rows = [
        ("Engine_wrapper multiplexer", f"{mux_event:.2%}", "1.4%"),
        (
            "Other artifacts (portal, injectors, ICAP)",
            f"{artifact_event:.2%}",
            "0.3%",
        ),
        (
            "Total simulation-only overhead",
            f"{mux_event + artifact_event:.2%}",
            "1.7%",
        ),
    ]
    text = format_table(
        ["Component", "Event share", "Paper"],
        rows,
        title="§V — simulation overhead of the ReSim layer",
    )
    print(
        f"\nwall-time share (host-dependent, not committed): mux "
        f"{overhead.mux_time_share:.2%}, artifacts "
        f"{overhead.artifact_time_share:.2%}"
    )
    publish("overhead", text, benchmark)
    assert overhead.mux_event_share + overhead.artifact_event_share < 0.05
    assert overhead.mux_time_share > overhead.artifact_time_share


def test_overhead_is_trivial(overhead):
    """Total ReSim overhead stays in the low single digits."""
    assert overhead.mux_event_share + overhead.artifact_event_share < 0.05
    if overhead.total_elapsed_ns:
        assert overhead.mux_time_share + overhead.artifact_time_share < 0.06


def test_mux_overhead_dominates_artifacts(overhead):
    """Paper shape: the mux (1.4%) costs more than the artifacts (0.3%),
    because it wakes on every engine-IO toggle while the artifacts only
    act during DPR."""
    assert overhead.mux_time_share > overhead.artifact_time_share


def test_artifact_share_grows_with_dpr_frequency():
    """'...but this would increase if a design were to perform DPR more
    frequently' — longer SimBs (more DPR work per frame) raise the
    artifact share."""
    small = measure_artifact_overhead(
        SystemConfig(
            width=48, height=32, simb_payload_words=64, video_backdoor=True
        )
    )
    large = measure_artifact_overhead(
        SystemConfig(
            width=48, height=32, simb_payload_words=2048, video_backdoor=True
        )
    )
    assert large.artifact_event_share > small.artifact_event_share
