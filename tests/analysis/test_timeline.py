"""Tests for the Figure 5 timeline model."""

import pytest

from repro.analysis import build_timeline
from repro.analysis.timeline import WEEK_COMPONENTS, count_package_loc
from repro.verif import BUGS


def test_count_package_loc_counts_nonblank_lines():
    loc = count_package_loc("vmux")
    assert loc > 30


def test_count_file_and_symbol_targets():
    whole = count_package_loc("system/software.py")
    symbol = count_package_loc(("system/software.py", ["ResimReconfigStrategy"]))
    assert 0 < symbol < whole


def test_week_components_all_resolve():
    for week, targets in WEEK_COMPONENTS.items():
        for t in targets:
            assert count_package_loc(t) > 0, f"week {week}: {t} counts zero"


def test_build_timeline_default_takes_paper_at_face_value():
    tl = build_timeline()
    assert tl.total_bugs == len(BUGS)
    assert len(tl.weeks) == 11


def test_build_timeline_with_detection_filter():
    detected = {k: False for k in BUGS}
    detected["dpr.4"] = True
    tl = build_timeline(detected_bugs=detected)
    assert tl.total_bugs == 1
    assert "dpr.4" in tl.week(BUGS["dpr.4"].week_found).bugs_found


def test_phase_labels():
    tl = build_timeline()
    assert tl.week(1).phase == "integration"
    assert tl.week(5).phase == "vmux"
    assert tl.week(11).phase == "resim"


def test_phase_loc_accessors():
    tl = build_timeline()
    assert tl.baseline_loc() > tl.vmux_phase_loc() > tl.resim_phase_loc()
