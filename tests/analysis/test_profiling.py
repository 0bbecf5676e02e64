"""Tests for the Table II profiler and overhead attribution."""

import pytest

from repro.analysis import measure_artifact_overhead, profile_one_frame
from repro.analysis.profiling import PHASE_ORDER, PhaseStats
from repro.system import SystemConfig

TINY = SystemConfig(width=48, height=32, simb_payload_words=128, video_backdoor=True)


@pytest.fixture(scope="module")
def profile():
    return profile_one_frame(TINY, quantum_ps=500_000)


def test_profile_completes_cleanly(profile):
    assert profile.clean


def test_profile_covers_all_phases(profile):
    for phase in PHASE_ORDER:
        assert profile.phase(phase).simulated_ps > 0, phase


def test_profile_totals_consistent(profile):
    phase_sum = sum(p.simulated_ps for p in profile.phases.values())
    assert phase_sum == profile.total_simulated_ps
    event_sum = sum(p.events for p in profile.phases.values())
    assert event_sum == profile.total_events


def test_rows_order_and_overall(profile):
    rows = profile.rows()
    assert rows[0][0] == "CensusImg Engine"
    assert rows[-1][0] == "Overall"
    assert rows[-1][3] == profile.total_events


def test_profile_simulated_columns_are_deterministic(profile):
    # Table II commits these two columns, so a rerun must repeat them
    again = profile_one_frame(TINY, quantum_ps=500_000)
    assert again.phases.keys() == profile.phases.keys()
    for name, phase in profile.phases.items():
        assert again.phases[name].simulated_ps == phase.simulated_ps, name
        assert again.phases[name].events == phase.events, name


def test_events_per_simulated_us():
    p = PhaseStats("x", simulated_ps=2_000_000, events=500)
    assert p.events_per_simulated_us == 250
    assert PhaseStats("y").events_per_simulated_us == 0.0


def test_overhead_measurement_modes():
    # without profile mode: only event shares
    no_prof = measure_artifact_overhead(TINY)
    assert no_prof.total_events > 0
    assert 0 <= no_prof.mux_event_share < 0.2
    assert no_prof.mux_time_share == 0.0
    # profile mode adds wall-time attribution
    prof = measure_artifact_overhead(
        SystemConfig(width=48, height=32, simb_payload_words=128,
                     video_backdoor=True, profile=True)
    )
    assert prof.total_elapsed_ns > 0
    assert prof.mux_elapsed_ns > 0


def test_overhead_vmux_attributes_wrapper():
    cfg = SystemConfig(method="vmux", width=48, height=32,
                       simb_payload_words=128, video_backdoor=True)
    p = measure_artifact_overhead(cfg)
    # vmux build has no ReSim artifacts, but the signature register is
    # part of the simulation-only layer
    assert p.total_events > 0
