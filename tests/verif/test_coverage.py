"""Tests for the DPR functional-coverage collector."""

import pytest

from repro.system import AutoVisionSoftware, AutoVisionSystem, SystemConfig
from repro.verif import DprCoverage

SMALL = dict(width=48, height=32, simb_payload_words=128)


def run_covered(method="resim", n_frames=1):
    config = SystemConfig(method=method, **SMALL)
    system = AutoVisionSystem(config)
    software = AutoVisionSoftware(system)
    sim = system.build()
    cov = DprCoverage(system)
    cov.start(sim)
    sim.fork(software.run(n_frames), "software", owner=software)
    sim.run_until_event(software.run_complete, timeout=800_000_000)
    cov.finalize(software)
    return cov, system, software


@pytest.fixture(scope="module")
def resim_cov():
    return run_covered("resim")


@pytest.fixture(scope="module")
def vmux_cov():
    return run_covered("vmux")


def test_resim_covers_all_dpr_aspects(resim_cov):
    cov, system, software = resim_cov
    assert software.finished
    assert cov.missing_points() == [], cov.report()
    assert cov.score == 1.0


def test_vmux_coverage_holes(vmux_cov):
    """The paper's argument, as coverage: VMux never exercises the
    bitstream transfer, injection windows, or the isolation logic."""
    cov, system, software = vmux_cov
    assert software.finished
    missing = {p.name for p in cov.missing_points()}
    assert "bitstream_transfer" in missing
    assert "injection_window" in missing
    assert "isolation_armed" in missing
    assert "phase_during" in missing
    assert cov.score < 0.7


def test_coverage_report_format(resim_cov):
    cov, *_ = resim_cov
    text = cov.report()
    assert "DPR coverage:" in text
    assert "[x] bitstream_transfer" in text


def test_cover_point_counts_grow_with_frames():
    cov1, *_ = run_covered("resim", n_frames=1)
    cov2, *_ = run_covered("resim", n_frames=2)
    assert (
        cov2.points["bitstream_transfer"].hits
        > cov1.points["bitstream_transfer"].hits
    )


def test_unknown_point_rejected(resim_cov):
    cov, *_ = resim_cov
    with pytest.raises(KeyError):
        cov.hit("nonexistent")


def test_report_lists_never_hit_points_with_descriptions(vmux_cov):
    """The report must name every hole, not just tally hits."""
    cov, *_ = vmux_cov
    text = cov.report()
    assert "never hit (" in text
    assert "- bitstream_transfer: IcapCTRL completed a bitstream DMA" in text
    assert "- injection_window: error injection active during a transfer" in text
    # the section lists exactly the uncovered points
    listed = {
        line.strip()[2:].split(":")[0]
        for line in text.splitlines()
        if line.strip().startswith("- ")
    }
    assert listed == {p.name for p in cov.missing_points()}


def test_fully_covered_report_has_no_never_hit_section(resim_cov):
    cov, *_ = resim_cov
    assert "never hit" not in cov.report()


def test_coverage_json_dict(vmux_cov):
    cov, *_ = vmux_cov
    data = cov.to_json_dict()
    assert data["total"] == cov.total
    assert data["covered"] == cov.covered
    assert set(data["never_hit"]) == {p.name for p in cov.missing_points()}
    assert data["hits"]["swap_to_cie"] >= 1
    assert data["hits"]["bitstream_transfer"] == 0


def test_point_names_matches_declared_points(resim_cov):
    from repro.verif.coverage import point_names

    cov, *_ = resim_cov
    assert sorted(point_names()) == sorted(cov.points)
