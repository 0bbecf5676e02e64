"""Tests for the failing-case shrinker and the replay-file round trip."""

import json

import pytest

from repro.system.scenarios import FUZZ_CONSTRAINTS
from repro.verif.fuzz import FuzzRecord, FuzzReport, ScenarioGenerator, run_differential
from repro.verif.shrink import (
    load_replay_file,
    replay,
    shrink_first_failure,
    shrink_scenario,
    signature_preserved,
    write_replay_file,
)

pytestmark = pytest.mark.fuzz


# ----------------------------------------------------------------------
# Pure pieces
# ----------------------------------------------------------------------
def test_signature_preservation_is_subset_shaped():
    original = ("checks", "detected", "dcr:engine_regs.SRC1")
    assert signature_preserved(original, original)
    assert signature_preserved(original, ("checks",))
    # a new failure field means a different bug: rejected
    assert not signature_preserved(original, ("checks", "hung"))
    # a candidate that no longer fails is rejected
    assert not signature_preserved(original, ())


def test_choice_constraint_shrinks_left_only():
    width = FUZZ_CONSTRAINTS["width"]
    assert width.shrink_candidates(48) == [24, 32]
    assert width.shrink_candidates(24) == []
    assert width.shrink_candidates(999) == []  # illegal value: nothing


def test_range_constraint_shrinks_aggressively_first():
    frames = FUZZ_CONSTRAINTS["n_frames"]
    candidates = frames.shrink_candidates(4)
    assert candidates[0] == 1  # most aggressive reduction leads
    assert all(frames.lo <= c < 4 for c in candidates)
    assert frames.shrink_candidates(frames.lo) == []


# ----------------------------------------------------------------------
# End-to-end shrinking of the seeded injected divergence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def original_signature():
    scenario = ScenarioGenerator(2013, inject_divergence="sw.1").scenario(0)
    record = run_differential(scenario)
    assert record.failed
    return scenario, record.signature


@pytest.fixture(scope="module")
def shrunk(original_signature):
    scenario, signature = original_signature
    return shrink_scenario(scenario, signature, max_evals=48)


def test_shrinks_to_at_most_two_frames(shrunk):
    # sw.1 swaps the current/previous feature buffers in the ME
    # program — a no-op with a single frame, so two frames is the
    # true minimum and the shrinker must find it
    assert shrunk.scenario.n_frames <= 2
    assert shrunk.steps
    assert shrunk.evals <= 48


def test_shrunk_scenario_still_fails_with_preserved_signature(
    original_signature, shrunk
):
    _, original = original_signature
    assert shrunk.record is not None
    assert shrunk.record.failed
    assert shrunk.signature == shrunk.record.signature
    assert signature_preserved(original, shrunk.signature)


def test_shrink_reduces_geometry_too(shrunk):
    original, minimized = shrunk.original, shrunk.scenario
    assert minimized.width <= original.width
    assert minimized.height <= original.height
    assert minimized.simb_payload_words <= original.simb_payload_words


def test_replay_file_roundtrip(shrunk, tmp_path):
    path = tmp_path / "repro.json"
    write_replay_file(path, shrunk, campaign_seed=2013)
    scenario, signature = load_replay_file(path)
    assert scenario == shrunk.scenario
    assert signature == shrunk.signature

    reproduced, record, expected = replay(path)
    assert reproduced
    assert record.signature == expected


def test_replay_file_is_canonical_json(shrunk, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_replay_file(a, shrunk, campaign_seed=2013)
    write_replay_file(b, shrunk, campaign_seed=2013)
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["kind"] == "repro-fuzz-replay"
    assert data["shrunk_from"]["n_frames"] >= data["scenario"]["n_frames"]


def test_replay_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(ValueError, match="not a fuzz replay"):
        load_replay_file(path)
    path.write_text(json.dumps({"kind": "repro-fuzz-replay", "version": 99}))
    with pytest.raises(ValueError, match="version"):
        load_replay_file(path)


def test_shrink_first_failure_skips_fleet_errors():
    scenario = ScenarioGenerator(1).scenario(0)
    report = FuzzReport(seed=1, budget=1, wave_size=1)
    report.records.append(
        FuzzRecord(scenario=scenario, resim=None, vmux=None,
                   error="fleet: run failed (worker crash)")
    )
    assert shrink_first_failure(report) is None
    assert report.shrink is None
