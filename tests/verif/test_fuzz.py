"""Tests for the coverage-closure fuzzer and its differential harness."""

import dataclasses

import pytest

from repro.analysis.reporting import canonical_json
from repro.system.scenarios import FUZZ_CONSTRAINTS
from repro.verif.coverage import point_names
from repro.verif.fuzz import (
    FUZZ_TRANSIENT_POOL,
    VMUX_BLIND_POINTS,
    FuzzScenario,
    ScenarioGenerator,
    run_differential,
    run_fuzz_campaign,
    scenario_from_dict,
)

pytestmark = pytest.mark.fuzz


# ----------------------------------------------------------------------
# Constrained-random generation
# ----------------------------------------------------------------------
def test_generator_is_deterministic():
    a = ScenarioGenerator(2013)
    b = ScenarioGenerator(2013)
    for i in range(10):
        assert a.scenario(i) == b.scenario(i)


def test_generator_varies_by_seed_and_index():
    gen = ScenarioGenerator(2013)
    assert gen.scenario(0) != gen.scenario(1)
    assert gen.scenario(0) != ScenarioGenerator(7).scenario(0)


def test_generated_scenarios_respect_constraints():
    gen = ScenarioGenerator(99)
    for i in range(25):
        s = gen.scenario(i)
        s.validate()  # raises on any out-of-range field
        for key, frac in s.transients:
            assert key in FUZZ_TRANSIENT_POOL
            assert 0.0 <= frac <= 1.0
        assert len(s.transients) <= FUZZ_CONSTRAINTS["n_transients"].hi


def test_generator_rejects_unknown_divergence_key():
    with pytest.raises(KeyError):
        ScenarioGenerator(1, inject_divergence="bogus")


def test_scenario_json_roundtrip():
    s = ScenarioGenerator(2013, inject_divergence="sw.1").scenario(3)
    assert scenario_from_dict(s.to_json_dict()) == s


def test_scenario_json_shape_and_defaults():
    s = ScenarioGenerator(2013, inject_divergence="sw.1").scenario(3)
    s = dataclasses.replace(s, transients=(("dma_stall", 0.25),))
    data = s.to_json_dict()
    assert data["transients"] == [["dma_stall", 0.25]]
    assert scenario_from_dict(data).transients == (("dma_stall", 0.25),)
    del data["transients"], data["divergence_fault"]
    bare = scenario_from_dict(data)
    assert bare.transients == () and bare.divergence_fault is None
    del data["width"]
    with pytest.raises(KeyError):
        scenario_from_dict(data)


def test_validate_rejects_illegal_values():
    base = ScenarioGenerator(1).scenario(0)
    import dataclasses

    with pytest.raises(ValueError):
        dataclasses.replace(base, width=13).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(
            base, transients=(("x_burst", 0.5),)
        ).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(
            base, transients=(("dma_stall", 1.5),)
        ).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(base, divergence_fault="bogus").validate()


def test_blind_point_set_is_within_coverage_model():
    assert VMUX_BLIND_POINTS <= set(point_names())


# ----------------------------------------------------------------------
# Differential harness
# ----------------------------------------------------------------------
def _one_frame_scenario(**overrides) -> FuzzScenario:
    values = dict(
        index=0, seed=11, n_frames=1, width=24, height=16, n_objects=1,
        scene_seed=3, radius=1, simb_payload_words=64, cfg_mhz=100.0,
        fault_tolerance=False, watchdog_cycles=512,
        max_reconfig_attempts=1, retry_backoff_cycles=32,
    )
    values.update(overrides)
    return FuzzScenario(**values)


@pytest.fixture(scope="module")
def clean_record():
    return run_differential(_one_frame_scenario())


def test_clean_differential_has_no_real_divergence(clean_record):
    assert not clean_record.failed
    assert clean_record.signature == ()


def test_expected_divergences_cite_unreachable_points(clean_record):
    assert clean_record.diffs, "ReSim-only machinery should diverge"
    for d in clean_record.diffs:
        assert d.classification == "expected"
        assert d.cover_point in VMUX_BLIND_POINTS
        # the excuse is only valid while the point is vmux-unreachable
        assert clean_record.vmux.coverage.get(d.cover_point, 0) == 0


def test_both_sides_observed_same_stimulus(clean_record):
    r, v = clean_record.resim, clean_record.vmux
    assert r.frames_drawn == v.frames_drawn == 1
    assert r.checks == v.checks
    assert r.interrupts["engine_done"] == v.interrupts["engine_done"]


# ----------------------------------------------------------------------
# Coverage-closure campaign
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def campaign():
    return run_fuzz_campaign(budget=8, seed=2013, jobs=2, wave_size=4)


def test_campaign_closes_resim_coverage(campaign):
    assert campaign.closed, f"never hit: {campaign.never_hit}"
    assert campaign.ok
    assert not campaign.real_failures


def test_campaign_stops_early_once_closed(campaign):
    assert campaign.stopped_early
    assert len(campaign.records) < campaign.budget


def test_campaign_report_bytes_identical_across_jobs(campaign):
    serial = run_fuzz_campaign(budget=8, seed=2013, jobs=1, wave_size=4)
    assert canonical_json(serial.to_json_dict()) == canonical_json(
        campaign.to_json_dict()
    )


def test_campaign_survives_worker_crash(campaign):
    crashed = run_fuzz_campaign(
        budget=8, seed=2013, jobs=2, wave_size=4,
        fault_injection={"fuzz:1": "crash"},
    )
    assert crashed.worker_crashes >= 1
    # the crashed task was retried on a fresh worker: same report bytes
    assert canonical_json(crashed.to_json_dict()) == canonical_json(
        campaign.to_json_dict()
    )


def test_injected_divergence_surfaces_as_real_failure():
    report = run_fuzz_campaign(
        budget=1, seed=2013, jobs=1, wave_size=1, inject_divergence="sw.1"
    )
    assert report.real_failures
    assert not report.ok
    record = report.records[report.real_failures[0]]
    assert record.signature
    assert all(d.classification == "real" for d in record.real_diffs)


def test_campaign_validates_arguments():
    with pytest.raises(ValueError):
        run_fuzz_campaign(budget=0)
    with pytest.raises(ValueError):
        run_fuzz_campaign(budget=1, wave_size=0)
    with pytest.raises(KeyError):
        run_fuzz_campaign(budget=1, inject_divergence="bogus")
