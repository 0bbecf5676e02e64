"""Tests for the kernel-throughput harness and `repro bench`."""

import json

import pytest

from repro.analysis import benchkit
from repro.cli import main

# tiny workloads so the harness tests stay fast
_TINY = {"clock_toggle": 200, "signal_update": 50, "edge_wait": 50,
         "plb_burst": 2}


def test_workloads_return_their_work_counts():
    assert benchkit.bench_clock_toggle(200) == 200
    assert benchkit.bench_signal_update(50) == 50
    assert benchkit.bench_edge_wait(50) == 50
    assert benchkit.bench_plb_burst(2) == 32


def test_measure_selected_kernels(monkeypatch):
    monkeypatch.setitem(
        benchkit.KERNELS, "clock_toggle",
        (lambda: benchkit.bench_clock_toggle(200), "cycles"),
    )
    results = benchkit.measure(repeats=1, kernels=["clock_toggle"])
    assert set(results) == {"clock_toggle"}
    r = results["clock_toggle"]
    assert r["work"] == 200 and r["unit"] == "cycles"
    assert r["best_s"] > 0 and r["per_sec"] > 0


def test_baseline_round_trip(tmp_path):
    results = {
        "clock_toggle": {
            "work": 100, "unit": "cycles", "best_s": 0.5, "per_sec": 200.0,
        }
    }
    path = tmp_path / "BENCH_kernel.json"
    benchkit.write_baseline(results, path)
    loaded = benchkit.load_baseline(path)
    assert loaded["clock_toggle"]["per_sec"] == 200.0


def test_pre_backend_baseline_still_loads(tmp_path):
    """Only ``schema`` and ``kernels`` are read; other fields (``python``,
    ``platform``, the committed file's old ``backend``) are informational."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "schema": 1,
        "kernels": {"clock_toggle": {"per_sec": 10.0}},
    }))
    assert benchkit.load_baseline(path)["clock_toggle"]["per_sec"] == 10.0


def test_load_baseline_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "kernels": {}}))
    with pytest.raises(ValueError):
        benchkit.load_baseline(path)


def test_compare_flags_regressions():
    base = {"a": {"per_sec": 100.0}, "b": {"per_sec": 100.0},
            "missing": {"per_sec": 1.0}}
    now = {"a": {"per_sec": 85.0}, "b": {"per_sec": 79.0}}
    rows = benchkit.compare(now, base, tolerance=0.20)
    by_name = {r["name"]: r for r in rows}
    assert set(by_name) == {"a", "b"}  # kernels absent from current skipped
    assert by_name["a"]["ok"] and not by_name["b"]["ok"]
    assert by_name["b"]["ratio"] == pytest.approx(0.79)


def _patch_tiny_kernels(monkeypatch):
    for name, n in _TINY.items():
        fn = benchkit.KERNELS[name][0]
        unit = benchkit.KERNELS[name][1]
        monkeypatch.setitem(
            benchkit.KERNELS, name,
            (lambda fn=fn, n=n: fn(n), unit),
        )


def _patch_fixed_measure(monkeypatch, *scales):
    """Replace the timed measurement with fixed per-kernel results.

    The n-th ``measure`` call reports ``200/s * scales[n]`` for every
    kernel, so CLI tests check recorded-vs-fresh comparisons on injected
    numbers instead of wall-clock timings.
    """
    calls = []

    def fixed(repeats=3, kernels=None):
        scale = scales[len(calls)]
        calls.append(kernels)
        names = list(kernels) if kernels is not None else list(benchkit.KERNELS)
        return {
            name: {
                "work": 100,
                "unit": benchkit.KERNELS[name][1],
                "best_s": 0.5 / scale,
                "per_sec": 200.0 * scale,
            }
            for name in names
        }

    monkeypatch.setattr(benchkit, "measure", fixed)


def test_cli_bench_update_then_check_passes(tmp_path, monkeypatch, capsys):
    # the fresh run is 10% slower than the baseline: inside the 20% gate
    _patch_fixed_measure(monkeypatch, 1.0, 0.9)
    baseline = tmp_path / "BENCH_kernel.json"
    assert main(["bench", "--update", "--repeats", "1",
                 "--baseline", str(baseline)]) == 0
    assert baseline.exists()
    out = capsys.readouterr().out
    assert "baseline written" in out

    assert main(["bench", "--check", "--repeats", "2",
                 "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "[ok       ] clock_toggle: 180/s vs baseline 200/s (0.90x)" in out
    assert "REGRESSED" not in out


def test_cli_bench_check_fails_on_regression(tmp_path, monkeypatch, capsys):
    _patch_tiny_kernels(monkeypatch)
    baseline = tmp_path / "BENCH_kernel.json"
    results = benchkit.measure(repeats=1)
    # pretend the committed baseline was 10x faster than this machine
    for r in results.values():
        r["per_sec"] *= 10
    benchkit.write_baseline(results, baseline)
    code = main(["bench", "--check", "--repeats", "1",
                 "--baseline", str(baseline)])
    assert code == 1
    err = capsys.readouterr().err
    assert "regressed" in err


def test_cli_bench_check_without_baseline(tmp_path, monkeypatch, capsys):
    _patch_tiny_kernels(monkeypatch)
    code = main(["bench", "--check", "--repeats", "1",
                 "--baseline", str(tmp_path / "nope.json")])
    assert code == 2
    assert "no baseline" in capsys.readouterr().err


def test_cli_bench_json_output(monkeypatch, capsys):
    _patch_tiny_kernels(monkeypatch)
    assert main(["bench", "--json", "--repeats", "1",
                 "--kernel", "clock_toggle"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "clock_toggle" in doc and doc["clock_toggle"]["per_sec"] > 0


def test_cli_bench_unknown_kernel(capsys):
    assert main(["bench", "--kernel", "bogus", "--repeats", "1"]) == 2
    assert "unknown kernel" in capsys.readouterr().err
