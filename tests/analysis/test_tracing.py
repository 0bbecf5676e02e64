"""Tests for the structured trace substrate and its exporters."""

import json

import pytest

from repro.analysis.tracing import (
    BUILTIN_CATEGORIES,
    NULL_SPAN,
    TRACE_PID,
    Tracer,
    counter_summary,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.analysis.reporting import format_trace_timeline
from repro.kernel import Simulator, Timer
from repro.system import AutoVisionSoftware, AutoVisionSystem, SystemConfig

TINY = dict(width=48, height=32, simb_payload_words=128, video_backdoor=True)


def run_traced(**overrides):
    cfg = SystemConfig(tracing=True, **TINY, **overrides)
    system = AutoVisionSystem(cfg)
    software = AutoVisionSoftware(system)
    sim = system.build()
    sim.fork(software.run(1), "software.main", owner=software)
    sim.run_until_event(software.run_complete, timeout=5_000_000_000_000)
    assert software.finished and not software.anomalies
    sim.tracer.finalize()
    return sim, software


@pytest.fixture(scope="module")
def traced():
    return run_traced()


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracerCore:
    def test_simulator_has_no_tracer_by_default(self):
        assert Simulator().tracer is None

    def test_buses_have_no_observers_without_tracing(self):
        system = AutoVisionSystem(SystemConfig(**TINY))
        sim = system.build()
        assert sim.tracer is None
        assert system.bus._observers == []
        assert system.dcr._observers == []

    def test_span_records_simulated_duration(self):
        sim = Simulator()
        tr = Tracer().attach(sim)
        assert sim.tracer is tr

        def proc():
            with tr.span("kernel", "step", detail=1):
                yield Timer(1000)

        sim.fork(proc(), "p")
        sim.run()
        (ev,) = [e for e in tr.events if e.name == "step"]
        assert ev.ph == "X" and ev.ts_ps == 0 and ev.dur_ps == 1000
        assert ev.args == {"detail": 1}

    def test_category_filter_returns_null_span(self):
        tr = Tracer(categories={"reconfig"})
        assert tr.begin("kernel", "x") is NULL_SPAN
        tr.instant("firmware", "y")
        tr.counter("bus", "z", n=1)
        assert tr.events == []
        s = tr.begin("reconfig", "real")
        s.end()
        assert len(tr.events) == 1

    def test_tracks_get_stable_distinct_tids(self):
        tr = Tracer()
        base = dict(tr.track_names())
        for i, cat in enumerate(BUILTIN_CATEGORIES, start=1):
            assert base[i] == cat
        a = tr._tid_for("bus", "plb")
        b = tr._tid_for("bus", "dcr")
        assert a != b
        assert tr._tid_for("bus", "plb") == a

    def test_finalize_closes_open_spans(self):
        tr = Tracer()
        tr.begin("firmware", "left-open")
        tr.finalize()
        (ev,) = tr.events
        assert ev.args["unterminated"] is True

    def test_warning_keeps_tuple_api_and_emits_instant(self):
        sim = Simulator()
        tr = Tracer().attach(sim)
        sim.warn("something odd")
        assert sim.warnings == [(0, "something odd")]
        (ev,) = tr.events
        assert ev.ph == "i" and ev.cat == "warning"
        assert ev.args == {"message": "something odd"}
        assert ev.ts_ps == sim.warnings[0][0]

    def test_warn_without_tracer_unchanged(self):
        sim = Simulator()
        sim.warn("plain")
        assert sim.warnings == [(0, "plain")]


# ----------------------------------------------------------------------
# Instrumented system run
# ----------------------------------------------------------------------
class TestSystemTrace:
    def test_all_builtin_categories_emitted(self, traced):
        sim, _ = traced
        cats = {e.cat for e in sim.tracer.events}
        assert {"kernel", "bus", "reconfig", "firmware"} <= cats

    def test_kernel_counters_sampled(self, traced):
        sim, _ = traced
        counters = [e for e in sim.tracer.events if e.ph == "C"]
        names = {e.name for e in counters}
        assert "scheduler" in names
        sched = [e for e in counters if e.name == "scheduler"][-1]
        assert sched.args["resumes"] > 0
        assert sched.args["deltas"] >= sched.args["timesteps"] > 0
        assert 0 < sched.args["silent_timesteps"] < sched.args["timesteps"]

    def test_firmware_phase_spans_match_phase_log(self, traced):
        sim, software = traced
        spans = [
            e for e in sim.tracer.events
            if e.ph == "X" and e.cat == "firmware"
            and e.name in ("video_in", "cie", "dpr", "me", "isr_draw")
        ]
        assert len(spans) == len(software.phase_log)
        logged = sorted((n, s, e) for n, s, e in software.phase_log)
        traced_spans = sorted(
            (e.name, e.ts_ps, e.ts_ps + e.dur_ps) for e in spans
        )
        assert traced_spans == logged

    def test_reconfig_lifecycle_order(self, traced):
        sim, _ = traced
        events = [
            e for e in sim.tracer.sorted_events() if e.cat == "reconfig"
        ]
        names = [e.name for e in events]
        # one frame = two reconfigurations (CIE->ME, ME->CIE)
        assert names.count("icap-transfer") == 2
        assert names.count("during-reconfig") == 2
        first = names.index("portal:far")
        seq = [n for n in names[first:] if n.startswith("portal:")][:4]
        assert seq == [
            "portal:far", "portal:inject_start", "portal:swap",
            "portal:desync",
        ]

    def test_during_reconfig_nests_inside_transfer(self, traced):
        sim, _ = traced
        evs = sim.tracer.events
        transfers = [e for e in evs if e.name == "icap-transfer"]
        durings = [e for e in evs if e.name == "during-reconfig"]
        for dur in durings:
            assert any(
                t.ts_ps <= dur.ts_ps
                and dur.ts_ps + dur.dur_ps <= t.ts_ps + t.dur_ps
                for t in transfers
            ), "during-reconfig span must sit inside an icap-transfer span"
        for t in transfers:
            assert t.args["bytes"] > 0
            assert t.args["words_drained"] == t.args["bytes"] // 4
            assert t.args["error"] is False

    def test_during_reconfig_outcome_is_swap(self, traced):
        sim, _ = traced
        for e in sim.tracer.events:
            if e.name == "during-reconfig":
                assert e.args["outcome"] == "swap"

    def test_isolation_instants_bracket_transfer(self, traced):
        sim, _ = traced
        names = [
            e.name for e in sim.tracer.sorted_events() if e.cat == "reconfig"
        ]
        armed = names.index("isolation-armed")
        released = names.index("isolation-released")
        transfer = names.index("portal:inject_start")
        assert armed < transfer < released

    def test_bus_spans_cover_both_buses(self, traced):
        sim, _ = traced
        bus_names = {e.name for e in sim.tracer.events if e.cat == "bus"}
        assert {"dcr:rd", "dcr:wr", "plb:rd", "plb:wr"} <= bus_names

    def test_retry_attempts_traced(self):
        sim, software = run_traced(
            fault_tolerance=True, max_reconfig_attempts=3
        )
        evs = sim.tracer.events
        attempts = [e for e in evs if e.name == "attempt"]
        reconfigs = [e for e in evs if e.name == "reconfigure"]
        # clean run: one attempt per reconfiguration, all successful
        assert len(reconfigs) == 2
        assert len(attempts) == 2
        assert all(a.args == {"n": 1, "label": a.args["label"], "ok": True}
                   for a in attempts)
        assert all(r.args["outcome"] == "ok" for r in reconfigs)

    def test_crc_ok_instants_with_fault_tolerance(self):
        sim, _ = run_traced(fault_tolerance=True)
        crc_oks = [e for e in sim.tracer.events if e.name == "crc-ok"]
        assert len(crc_oks) == 2  # one per reconfiguration


# ----------------------------------------------------------------------
# Chrome exporter
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_event_schema(self, traced):
        sim, _ = traced
        doc = to_chrome_trace(sim.tracer)
        assert doc["otherData"]["clock"] == "simulated-ps"
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        names = {m["args"]["name"] for m in metas}
        assert "repro-sim" in names and "firmware" in names
        assert "bus:plb" in names and "firmware:drawer" in names
        for e in events:
            assert e["pid"] == TRACE_PID
            assert e["ph"] in ("M", "X", "i", "C")
            if e["ph"] == "M":
                continue
            assert isinstance(e["ts"], float)
            assert e["tid"] >= 1 and e["cat"]
            if e["ph"] == "X":
                assert e["dur"] == e["args"]["dur_ps"] / 1e6
                assert e["ts"] == e["args"]["ts_ps"] / 1e6
            elif e["ph"] == "i":
                assert e["s"] == "t"

    def test_wall_clock_excluded_by_default(self, traced):
        sim, _ = traced
        doc = to_chrome_trace(sim.tracer)
        assert not any(
            "wall_ns" in e.get("args", {}) for e in doc["traceEvents"]
        )
        doc_wall = to_chrome_trace(sim.tracer, include_wall=True)
        assert any(
            "wall_ns" in e.get("args", {}) for e in doc_wall["traceEvents"]
        )

    def test_span_events_nest_in_lifecycle_order(self, traced):
        sim, _ = traced
        doc = to_chrome_trace(sim.tracer)
        # within one tid, Chrome requires nesting: sorted by ts, a span
        # must end before its predecessor does if they overlap
        by_tid = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                by_tid.setdefault(e["tid"], []).append(e)
        checked = 0
        for spans in by_tid.values():
            stack = []
            for e in spans:  # exporter emits in sorted order
                start, end = e["args"]["ts_ps"], (
                    e["args"]["ts_ps"] + e["args"]["dur_ps"]
                )
                while stack and stack[-1] <= start:
                    stack.pop()
                if stack:
                    assert end <= stack[-1], (
                        f"span {e['name']} overlaps its parent"
                    )
                    checked += 1
                stack.append(end)
        assert checked > 0  # the trace actually contains nested spans

    def test_file_output_deterministic_for_fixed_seed(self, tmp_path):
        paths = []
        for i in range(2):
            sim, _ = run_traced()
            path = tmp_path / f"t{i}.json"
            write_chrome_trace(sim.tracer, path)
            paths.append(path)
        a, b = (p.read_bytes() for p in paths)
        assert a == b  # byte-identical across runs
        json.loads(a)  # and valid JSON


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
class TestReporting:
    def test_counter_summary(self, traced):
        sim, _ = traced
        summary = counter_summary(sim.tracer)
        assert summary["firmware"]["spans"] > 0
        assert summary["firmware"]["span_ps"] > 0
        assert summary["reconfig"]["instants"] > 0
        assert summary["kernel"]["counters"]["scheduler"]["resumes"] > 0

    def test_timeline_renders_nested(self, traced):
        sim, _ = traced
        text = format_trace_timeline(sim.tracer.sorted_events(), limit=60)
        assert "frame" in text and "dcr:wr" in text
        assert "more events" in text
        # nesting shows as indentation under the frame span
        assert "  cie" in text

    def test_timeline_empty(self):
        assert "no trace events" in format_trace_timeline([])
