"""Tests of the benchmark's own bookkeeping, with injected counts and timings.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
No test reads a clock or runs the simulator.
"""

import json
import os
import types

import pytest

import hostspeed
import layers
import run

PKG = os.path.join(os.sep, "checkout", "src", "repro")


def _owner(module_name):
    """An instance of a class that claims to live in ``module_name``."""
    return type("Owner", (), {"__module__": module_name})()


def _src(*parts):
    return os.path.join(PKG, *parts)


# ----------------------------------------------------------------------
# owner -> layer
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "module, layer",
    [
        ("repro.kernel.clock", "kernel"),
        ("repro.kernel.codegen.emitter", "kernel.codegen"),
        ("repro.bus.plb", "bus"),
        ("repro.engines.cie", "engines"),
        ("repro.reconfig.icapctrl", "reconfig"),
        ("repro.core.library", "reconfig"),
        ("repro.vmux.wrapper", "reconfig"),
        ("repro.system.software", "system"),
        ("repro.cpu.iss", "system"),
        ("repro.video.vip", "video"),
        ("repro.verif.scoreboard", "verif"),
        ("repro.exec.fleet", "exec"),
        ("repro.analysis.tracing", "other"),
        ("repro.cli", "other"),
        ("numpy.core", "other"),
        ("__main__", "other"),
    ],
)
def test_module_layer(module, layer):
    assert layers.module_layer(module) == layer


def test_rollup_by_owner_sums_by_layer():
    by_owner = {
        _owner("repro.bus.plb"): 10,
        _owner("repro.bus.interrupts"): 5,
        _owner("repro.vmux.wrapper"): 3,
        _owner("repro.reconfig.slot"): 4,
        _owner("repro.system.software"): 2,
        _owner("repro.cpu.iss"): 1,
    }
    out = layers.rollup_by_owner(by_owner)
    assert out["bus"] == 15
    assert out["reconfig"] == 7
    assert out["system"] == 3
    assert out["engines"] == 0
    assert set(out) == set(layers.LAYERS)
    assert sum(out.values()) == sum(by_owner.values())


# ----------------------------------------------------------------------
# file -> layer
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "filename, layer",
    [
        (_src("kernel", "simulator.py"), "kernel"),
        (_src("kernel", "codegen", "backend.py"), "kernel.codegen"),
        (_src("bus", "interrupts.py"), "bus"),
        (_src("core", "region.py"), "reconfig"),
        (_src("cpu", "firmware.py"), "system"),
        (_src("__init__.py"), "other"),
        ("<codegen-driver-2clk>", "kernel.codegen"),
        ("<comb:autovision.rr0>", "kernel.codegen"),
        ("<segment:plb@12>", "kernel.codegen"),
        ("~", None),
        ("<string>", None),
        (os.path.join(os.sep, "usr", "lib", "python3", "heapq.py"), None),
        (os.path.join(os.sep, "checkout", "perfbench", "workloads.py"), None),
        (os.path.join(os.sep, "checkout", "src", "reprox", "bus", "plb.py"), None),
    ],
)
def test_file_layer(filename, layer):
    assert layers.file_layer(filename, PKG) == layer


def _entry(nc, tt, callers=None):
    return (nc, nc, tt, tt, callers or {})


def test_rollup_self_time_charges_c_code_to_its_callers():
    plb = (_src("bus", "plb.py"), 10, "_transfer")
    step = (_src("kernel", "simulator.py"), 380, "_step_deltas")
    driver = ("<codegen-driver-2clk>", 1, "driver")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    orphan = ("~", 0, "<built-in method time.perf_counter>")
    stats = {
        plb: _entry(4, 1.0),
        step: _entry(2, 2.0),
        driver: _entry(3, 0.5),
        # 0.3 s of heappop: 0.2 s called from the kernel, 0.1 s from the driver
        heappop: _entry(
            9, 0.3, {step: (6, 6, 0.2, 0.2), driver: (3, 3, 0.1, 0.1)}
        ),
        orphan: _entry(1, 0.01),
    }
    seconds = layers.rollup_self_time(stats, PKG)
    assert seconds["bus"] == pytest.approx(1.0)
    assert seconds["kernel"] == pytest.approx(2.2)
    assert seconds["kernel.codegen"] == pytest.approx(0.6)
    assert seconds["other"] == pytest.approx(0.01)
    assert sum(seconds.values()) == pytest.approx(3.81)


def test_rollup_self_time_walks_through_library_code_and_cycles():
    engine = (_src("engines", "base.py"), 234, "_compute_row")
    lib_a = (os.path.join(os.sep, "lib", "copy.py"), 1, "deepcopy")
    lib_b = (os.path.join(os.sep, "lib", "copy.py"), 2, "_deepcopy_dict")
    stats = {
        engine: _entry(1, 0.1),
        # deepcopy <-> _deepcopy_dict recurse; the outer call came from engines
        lib_a: _entry(2, 0.4, {engine: (1, 1, 0.3, 0.3), lib_b: (1, 1, 0.1, 0.1)}),
        lib_b: _entry(1, 0.2, {lib_a: (1, 1, 0.2, 0.2)}),
    }
    seconds = layers.rollup_self_time(stats, PKG)
    assert seconds["engines"] == pytest.approx(0.7)
    assert sum(seconds.values()) == pytest.approx(0.7)


def test_rollup_self_time_uses_call_counts_when_edges_have_no_time():
    bus = (_src("bus", "plb.py"), 1, "a")
    video = (_src("video", "vip.py"), 1, "b")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        bus: _entry(1, 0.0),
        video: _entry(1, 0.0),
        builtin: _entry(4, 0.4, {bus: (3, 3, 0.0, 0.0), video: (1, 1, 0.0, 0.0)}),
    }
    seconds = layers.rollup_self_time(stats, PKG)
    assert seconds["bus"] == pytest.approx(0.3)
    assert seconds["video"] == pytest.approx(0.1)


def test_calls_of_matches_function_and_file():
    stats = {
        (_src("bus", "interrupts.py"), 98, "_scan"): _entry(7, 0.1),
        (_src("bus", "dcr.py"), 40, "_scan"): _entry(100, 0.1),
        ("<codegen-driver-2clk>", 1, "driver"): _entry(5, 0.1),
        ("<codegen-driver-3clk>", 1, "driver"): _entry(2, 0.1),
    }
    assert layers.calls_of(stats, "_scan", "bus/interrupts.py") == 7
    assert layers.calls_of(stats, "driver", "<codegen-driver-") == 7
    assert layers.calls_of(stats, "_compute_row", "engines/base.py") == 0


def test_codegen_counts_summarises_kind_reason_map():
    counts = layers.codegen_counts(
        {
            ("bail", "clock-simultaneous"): 88930,
            ("bail", "timer-simultaneous"): 440,
            ("refuse", "yield-from"): 3,
            ("refuse", "foreign-call"): 1,
            ("install", "plb"): 2,
            ("deopt", "site-drift"): 1,
        }
    )
    assert counts["bails"] == 89370
    assert counts["bail.clock-simultaneous"] == 88930
    assert counts["bail.vcd-or-tracer"] == 0
    assert counts["refuses"] == 4
    assert counts["segments_installed"] == 2
    assert counts["deopts"] == 1


# ----------------------------------------------------------------------
# Fingerprints and failed_frac
# ----------------------------------------------------------------------
def test_fingerprint_diff_and_backend_parity():
    interp = {"sim_time_ps": 5, "kernel.events": 9, "kernel.deltas": 3, "kernel.timesteps": 2}
    codegen = dict(interp, **{"kernel.deltas": 4, "kernel.timesteps": 1})
    assert layers.fingerprint_diff(interp, dict(interp)) == []
    assert layers.fingerprint_diff(interp, codegen) == ["kernel.deltas", "kernel.timesteps"]
    assert layers.fingerprint_diff(interp, codegen, ignore=layers.BACKEND_FREE_KEYS) == []
    moved = dict(codegen, **{"kernel.events": 10})
    assert layers.fingerprint_diff(interp, moved, ignore=layers.BACKEND_FREE_KEYS) == [
        "kernel.events"
    ]
    assert layers.fingerprint_diff(interp, {"sim_time_ps": 5}) == [
        "kernel.deltas", "kernel.events", "kernel.timesteps",
    ]


def test_tally_counts_every_operation_and_keeps_reasons():
    tally = layers.Tally()
    assert tally.failed_frac == 0.0
    tally.record("a", [])
    tally.record("b", ["scoreboard check failed", "run hung"])
    tally.record("c", [])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.failed_frac == pytest.approx(1 / 3)
    assert tally.failures == ["b: scoreboard check failed; run hung"]


def _sample(fingerprint, problems=()):
    return types.SimpleNamespace(fingerprint=fingerprint, problems=list(problems))


def test_measure_flags_changed_fingerprints_and_crashes(monkeypatch):
    good = {"sim_time_ps": 1, "kernel.events": 2, "kernel.deltas": 3}
    queue = [
        _sample(good),
        _sample(dict(good, **{"kernel.deltas": 9})),  # repeat broken
        _sample({}, ["RuntimeError: boom"]),  # crashed run
        _sample(dict(good)),
    ]
    fake = types.SimpleNamespace(run_once=lambda workload, seed, speed: queue.pop(0))
    monkeypatch.setattr(run, "workloads", fake, raising=False)
    clock = iter(range(100))  # one tick per clock read: four iterations fit
    monkeypatch.setattr(run, "perf_counter", lambda: next(clock))
    tally = layers.Tally()
    samples = run.measure(None, 0, 4, tally, None, None)
    assert len(samples) == 4 and not queue
    assert tally.attempted == 4
    assert tally.failed == 2
    assert "kernel.deltas" in tally.failures[0]
    assert "boom" in tally.failures[1]


def test_check_sample_backend_parity():
    good = {"sim_time_ps": 1, "kernel.events": 2, "kernel.deltas": 3}
    # the parity reference ignores deltas/timesteps but not events
    reference = dict(good, **{"kernel.deltas": 7})
    assert run.check_sample(_sample(good), None, reference) == []
    moved = dict(good, **{"kernel.events": 3})
    assert run.check_sample(_sample(moved), None, reference) == [
        "differs from the interp run: kernel.events"
    ]


def test_normalise_scales_to_the_reference_host():
    nominal = hostspeed.NOMINAL_S
    # a host twice as slow as the reference halves the reported time
    assert hostspeed.normalise(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
    # the two probes around the call are averaged
    assert hostspeed.normalise(1.0, nominal, 3 * nominal) == pytest.approx(0.5)
    assert hostspeed.normalise(1.0, nominal, nominal) == pytest.approx(1.0)


def test_ratio_of_zero_is_zero():
    assert layers.ratio(3, 2) == 1.5
    assert layers.ratio(1, 0) == 0.0


# ----------------------------------------------------------------------
# The metric lists match BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_lists_match_benchmark_json():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared_e2e == list(layers.END_TO_END)
    assert declared_layer == list(layers.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
