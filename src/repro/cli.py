"""Command-line front end: ``python -m repro <command>``.

Commands:

``run``        simulate the demonstrator and print the scoreboard verdict
``bugs``       list the historical bug catalogue, or inject one bug under
               both simulation methods and report who detects it
``profile``    the Table II per-stage cost profile of one frame
``coverage``   DPR functional coverage of a run (resim vs vmux)
``scenarios``  list the named scenarios
``timeline``   the Figure 5 development-timeline model
``campaign``   the full Table III bug-detection campaign; ``--jobs N``
               fans runs out to fleet workers with byte-identical
               reports
``soak``       seeded transient-fault soak campaign exercising the
               detect/abort/retry recovery stack; ``--check`` fails on
               silent corruption or hangs; supports ``--jobs``
``trace``      run with structured tracing on and export a Chrome
               ``trace_event`` JSON (Perfetto-loadable) plus a text
               timeline and counter summary
``fuzz``       coverage-closure fuzzing: constrained-random scenarios
               run under both ReSim and VMux with differential
               checking; real divergences are auto-shrunk to a replay
               file, ``--replay`` re-runs one; supports ``--jobs``

``main`` parses through :func:`build_parser`, which exists as a
separate function so tooling (``tools/check_docs.py``) can introspect
the real argparse tree and fail CI on documented flags that drifted.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from .analysis import build_timeline, format_table, profile_one_frame
from .system.scenarios import scenario, scenario_names
from .verif import BUGS, DprCoverage, run_system

__all__ = ["build_parser", "main"]


def _positive_int(text: str) -> int:
    """argparse type for a count: a zero or negative one is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", default="tiny", choices=scenario_names(),
        help="named operating point (default: tiny)",
    )


def _add_frames(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--frames", type=_positive_int, default=2)


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_scenario(parser)
    parser.add_argument(
        "--method", choices=("resim", "vmux", "dcs"), default=None,
        help="override the simulation method",
    )
    parser.add_argument(
        "--fault", action="append", default=[],
        help="inject a bug by key (repeatable); see `bugs`",
    )


def _config(args):
    overrides = {}
    if args.method:
        overrides["method"] = args.method
    if args.fault:
        overrides["faults"] = frozenset(args.fault)
    return scenario(args.scenario, **overrides)


def _cmd_run(args) -> int:
    result = run_system(_config(args), n_frames=args.frames)
    print(result.summary())
    for a in result.anomalies:
        print("  !", a)
    print(
        f"simulated {result.sim_time_ps / 1e9:.3f} ms in "
        f"{result.elapsed_s:.2f} s ({result.kernel_events:,} kernel events)"
    )
    return 1 if result.detected else 0


def _cmd_bugs(args) -> int:
    if not args.key:
        rows = [
            (b.key, b.kind, "+".join(b.expected_detectors), b.week_found, b.title)
            for b in BUGS.values()
        ]
        print(
            format_table(
                ["Key", "Kind", "Paper detectors", "Week", "Title"],
                rows,
                title="Historical bug catalogue (Table III / Figure 5)",
            )
        )
        return 0
    bug = BUGS.get(args.key)
    if bug is None:
        print(f"unknown bug {args.key!r}", file=sys.stderr)
        return 2
    print(f"{bug.key}: {bug.title}\n{bug.description}\n")
    verdicts = {}
    for method in ("vmux", "resim"):
        cfg = scenario(args.scenario, method=method, faults=frozenset({bug.key}))
        result = run_system(cfg, n_frames=args.frames)
        verdicts[method] = result.detected
        status = "DETECTED" if result.detected else "missed"
        print(f"[{method:5s}] {status}")
        for a in result.anomalies[:4]:
            print(f"         {a}")
    expected = "+".join(bug.expected_detectors)
    print(f"\npaper's claim: detectable by {expected}")
    return 0


def _cmd_profile(args) -> int:
    cfg = replace(_config(args), video_backdoor=True)
    profile = profile_one_frame(cfg)
    rows = [
        (label, round(sim_ms, 4), round(elapsed, 3), events)
        for label, sim_ms, elapsed, events in profile.rows()
    ]
    print(
        format_table(
            ["Stage", "Simulated ms", "Elapsed s", "Events"],
            rows,
            title=f"Per-stage cost of one frame ({cfg.width}x{cfg.height})",
        )
    )
    return 0 if profile.clean else 1


def _cmd_coverage(args) -> int:
    captured = {}

    def prepare(system, software, sim):
        captured["coverage"] = cov = DprCoverage(system)
        cov.start(sim)

    result = run_system(_config(args), n_frames=args.frames, prepare=prepare)
    cov = captured["coverage"]
    cov.finalize()
    print(cov.report())
    return 1 if result.hung else 0


def _cmd_scenarios(_args) -> int:
    from .system.scenarios import SCENARIOS

    rows = [
        (
            name,
            c.method,
            f"{c.width}x{c.height}",
            c.simb_payload_words,
            f"{c.cfg_mhz:g} MHz",
        )
        for name, c in sorted(SCENARIOS.items())
    ]
    print(
        format_table(
            ["Scenario", "Method", "Frame", "SimB words", "Cfg clock"],
            rows,
        )
    )
    return 0


def _cmd_campaign(args) -> int:
    from .analysis.reporting import canonical_json
    from .verif import BUGS
    from .verif.campaign import run_bug_campaign

    for key in args.bug:
        if key not in BUGS:
            print(f"unknown bug {key!r}; see `repro bugs`", file=sys.stderr)
            return 2
    result = run_bug_campaign(
        bug_keys=args.bug or None,
        base_config=scenario(args.scenario),
        n_frames=args.frames,
        include_baseline=not args.no_baseline,
        jobs=args.jobs,
    )

    if args.json:
        print(canonical_json(result.to_json_dict()), end="")
    else:
        rows = [
            (
                o.bug.key,
                "yes" if o.vmux_detected else "no",
                "yes" if o.resim_detected else "no",
                o.classification,
                "yes" if o.matches_paper else "NO",
            )
            for o in result.outcomes
        ]
        print(
            format_table(
                ["Bug", "VMux", "ReSim", "Classification", "Matches paper"],
                rows,
                title=f"Bug-detection campaign ({len(result.outcomes)} bugs, "
                      f"jobs={result.jobs})",
            )
        )
        counts = result.detected_counts()
        print(
            f"detected: vmux={counts['vmux']} resim={counts['resim']} "
            f"resim-only={counts['resim_only']}; "
            f"all match paper: {'yes' if result.all_match_paper else 'NO'}"
        )
        if result.worker_crashes:
            print(f"fleet: {result.worker_crashes} worker crash(es) recovered")

    if args.check:
        failures = result.run_failures
        for f in failures:
            print(f"campaign FAILURE - {f}", file=sys.stderr)
        if failures or not result.all_match_paper:
            if not result.all_match_paper:
                print(
                    "campaign FAILURE - detection matrix deviates from the "
                    "paper's Table III",
                    file=sys.stderr,
                )
            return 1
    return 0


def _cmd_soak(args) -> int:
    from .analysis.reporting import canonical_json, format_ps
    from .verif import TRANSIENTS, run_soak_campaign

    for key in args.transient:
        if key not in TRANSIENTS:
            print(f"unknown transient {key!r}; choose from "
                  f"{', '.join(sorted(TRANSIENTS))}", file=sys.stderr)
            return 2
    report = run_soak_campaign(
        methods=tuple(args.method) if args.method else ("resim", "vmux"),
        frames=args.frames,
        seed=args.seed,
        transients=args.transient or None,
        jobs=args.jobs,
    )

    if args.json:
        print(canonical_json(report.to_json_dict()), end="")
    else:
        rows = []
        for r in report.runs:
            det = r.detection_latency_ps
            rec = r.recovery_latency_ps
            rows.append(
                (
                    r.method,
                    r.transient,
                    r.outcome,
                    format_ps(det) if det is not None else "-",
                    format_ps(rec) if rec is not None else "-",
                    r.result.frames_dropped,
                    len(r.result.anomalies),
                )
            )
        print(
            format_table(
                ["Method", "Transient", "Outcome", "Detect", "Recover",
                 "Dropped", "Anomalies"],
                rows,
                title=f"Soak campaign (seed={report.seed}, "
                      f"frames={report.frames})",
            )
        )
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(report.counts().items())
        )
        print(f"outcomes: {counts}")

    if args.check and not report.ok:
        bad = [
            f"{r.method}/{r.transient}: "
            + ("silent corruption" if r.outcome == "silent-corruption"
               else "hung")
            for r in report.runs
            if r.outcome == "silent-corruption" or r.result.hung
        ]
        for b in bad:
            print(f"soak FAILURE - {b}", file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args) -> int:
    from .analysis.reporting import canonical_json
    from .verif import BUGS
    from .verif.fuzz import run_fuzz_campaign
    from .verif.shrink import replay, shrink_first_failure, write_replay_file

    if args.replay:
        ok, record, expected = replay(args.replay)
        scenario = record.scenario
        print(
            f"replaying {args.replay}: scenario #{scenario.index} "
            f"({scenario.n_frames} frame(s), {scenario.width}x{scenario.height}"
            f", divergence_fault={scenario.divergence_fault})"
        )
        print(f"expected signature: {', '.join(expected) or '(none)'}")
        print(f"observed signature: {', '.join(record.signature) or '(none)'}")
        for d in record.real_diffs:
            print(f"  real  {d.field}: resim={d.resim} vmux={d.vmux}")
        print("REPRODUCED" if ok else "did NOT reproduce", end="\n")
        return 0 if ok else 1

    if args.inject_divergence and args.inject_divergence not in BUGS:
        print(f"unknown bug {args.inject_divergence!r}; see `repro bugs`",
              file=sys.stderr)
        return 2
    report = run_fuzz_campaign(
        budget=args.budget,
        seed=args.seed,
        jobs=args.jobs,
        wave_size=args.wave,
        inject_divergence=args.inject_divergence or None,
    )
    shrink_result = None
    if report.real_failures and not args.no_shrink:
        shrink_result = shrink_first_failure(report, max_evals=args.shrink_evals)
        if shrink_result is not None and args.repro:
            write_replay_file(args.repro, shrink_result, args.seed)

    if args.json:
        print(canonical_json(report.to_json_dict()), end="")
    else:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(report.counts().items()))
        print(
            f"fuzz campaign: seed={report.seed} budget={report.budget} "
            f"ran {len(report.records)} scenario(s) ({counts})"
        )
        closure = "CLOSED" if report.closed else "OPEN"
        print(
            f"coverage {closure}: "
            f"{len(report.target_points) - len(report.never_hit)}"
            f"/{len(report.target_points)} points hit under ReSim"
        )
        for name in report.never_hit:
            print(f"  never hit: {name}")
        for i in report.real_failures:
            record = report.records[i]
            what = record.error or ", ".join(record.signature)
            print(f"  REAL divergence in scenario #{record.scenario.index}: {what}")
        if shrink_result is not None:
            s = shrink_result.scenario
            print(
                f"shrunk to {s.n_frames} frame(s) {s.width}x{s.height} in "
                f"{shrink_result.evals} eval(s) "
                f"({len(shrink_result.steps)} reduction(s))"
            )
            if args.repro:
                print(f"replay file written to {args.repro} "
                      f"(re-run: repro fuzz --replay {args.repro})")
        if report.worker_crashes:
            print(f"fleet: {report.worker_crashes} worker crash(es) recovered")

    if args.check and not report.ok:
        if not report.closed:
            print(
                f"fuzz FAILURE - {len(report.never_hit)} cover point(s) "
                f"never hit within budget {report.budget}",
                file=sys.stderr,
            )
        for i in report.real_failures:
            record = report.records[i]
            print(
                f"fuzz FAILURE - real divergence in scenario "
                f"#{record.scenario.index}: "
                f"{record.error or ', '.join(record.signature)}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_trace(args) -> int:
    from .analysis.reporting import format_trace_timeline
    from .analysis.tracing import counter_summary, write_chrome_trace

    overrides = {"tracing": True}
    if args.categories:
        overrides["trace_categories"] = frozenset(
            c.strip() for cats in args.categories for c in cats.split(",") if c.strip()
        )
    cfg = replace(_config(args), **overrides)

    captured = {}

    def grab(system, software, sim):
        captured["sim"] = sim

    result = run_system(cfg, n_frames=args.frames, prepare=grab)
    tracer = captured["sim"].tracer
    tracer.finalize()
    doc = write_chrome_trace(tracer, args.output, include_wall=args.wall_clock)

    print(result.summary())
    n_events = len(doc["traceEvents"])
    print(f"wrote {n_events} trace events to {args.output}")
    print("load it at https://ui.perfetto.dev or chrome://tracing")
    if args.timeline:
        print()
        print(format_trace_timeline(tracer.sorted_events(), limit=args.timeline))
    if args.summary:
        print()
        rows = [
            (cat, s["spans"], round(s["span_ps"] / 1e6, 3), s["instants"])
            for cat, s in sorted(counter_summary(tracer).items())
        ]
        print(
            format_table(
                ["Category", "Spans", "Span us", "Instants"],
                rows,
                title="Trace summary",
            )
        )
    return 1 if result.detected else 0


def _cmd_timeline(_args) -> int:
    tl = build_timeline()
    rows = [
        (w.week, w.phase, w.loc_changed, len(w.bugs_found),
         ", ".join(w.bugs_found) or "-")
        for w in tl.weeks
    ]
    print(
        format_table(
            ["Week", "Phase", "LOC", "Bugs", "Which"],
            rows,
            title="Development timeline model (Figure 5)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argparse tree.

    Separate from :func:`main` so documentation tooling can walk the
    real subcommands and option strings (``tools/check_docs.py`` fails
    CI when a doc mentions a flag that does not exist here).
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AutoVision / ReSim dynamic-reconfiguration simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate the demonstrator")
    _add_common(p_run)
    _add_frames(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_bugs = sub.add_parser("bugs", help="list or inject historical bugs")
    _add_scenario(p_bugs)
    _add_frames(p_bugs)
    p_bugs.add_argument("key", nargs="?", help="bug key to inject")
    p_bugs.set_defaults(func=_cmd_bugs)

    p_prof = sub.add_parser("profile", help="Table II per-stage profile")
    _add_common(p_prof)
    p_prof.set_defaults(func=_cmd_profile)

    p_cov = sub.add_parser("coverage", help="DPR functional coverage")
    _add_common(p_cov)
    _add_frames(p_cov)
    p_cov.set_defaults(func=_cmd_coverage)

    p_sc = sub.add_parser("scenarios", help="list named scenarios")
    p_sc.set_defaults(func=_cmd_scenarios)

    p_tl = sub.add_parser("timeline", help="Figure 5 timeline model")
    p_tl.set_defaults(func=_cmd_timeline)

    p_camp = sub.add_parser(
        "campaign", help="Table III bug-detection campaign"
    )
    _add_scenario(p_camp)
    _add_frames(p_camp)
    p_camp.add_argument(
        "--bug", action="append", default=[],
        help="campaign only this bug key (repeatable); default: all",
    )
    p_camp.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="fleet worker processes (default 1: serial; report bytes are "
             "identical for any value)",
    )
    p_camp.add_argument(
        "--no-baseline", action="store_true",
        help="skip the two fault-free baseline runs",
    )
    p_camp.add_argument(
        "--json", action="store_true",
        help="canonical machine-readable report",
    )
    p_camp.add_argument(
        "--check", action="store_true",
        help="fail unless every bug matches the paper and no run failed",
    )
    p_camp.set_defaults(func=_cmd_campaign)

    p_soak = sub.add_parser(
        "soak", help="seeded transient-fault soak campaign"
    )
    _add_frames(p_soak)
    p_soak.add_argument(
        "--seed", type=int, default=7,
        help="campaign seed; same seed -> byte-identical JSON report",
    )
    p_soak.add_argument(
        "--method", action="append", default=[],
        choices=("resim", "vmux"),
        help="simulation method (repeatable; default: both)",
    )
    p_soak.add_argument(
        "--transient", action="append", default=[],
        help="inject only this transient (repeatable); default: all",
    )
    p_soak.add_argument(
        "--json", action="store_true",
        help="canonical machine-readable report",
    )
    p_soak.add_argument(
        "--check", action="store_true",
        help="fail on silent corruption or a hung run",
    )
    p_soak.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="fleet worker processes (default 1: serial; report bytes are "
             "identical for any value)",
    )
    p_soak.set_defaults(func=_cmd_soak)

    p_fuzz = sub.add_parser(
        "fuzz", help="coverage-closure differential fuzzing"
    )
    p_fuzz.add_argument(
        "--budget", type=_positive_int, default=25,
        help="maximum scenarios to generate (default 25)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=2013,
        help="campaign seed; same seed -> byte-identical JSON report",
    )
    p_fuzz.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="fleet worker processes (default 1: serial; report bytes are "
             "identical for any value)",
    )
    p_fuzz.add_argument(
        "--wave", type=_positive_int, default=8,
        help="scenarios generated per closure-check wave (default 8; part "
             "of the determinism contract, NOT tied to --jobs)",
    )
    p_fuzz.add_argument(
        "--inject-divergence", metavar="BUG",
        help="apply this bug key to the ReSim side only — a deliberate "
             "real divergence exercising the checker and shrinker",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report real divergences without minimizing them",
    )
    p_fuzz.add_argument(
        "--shrink-evals", type=_positive_int, default=48,
        help="differential evaluation budget for the shrinker (default 48)",
    )
    p_fuzz.add_argument(
        "--repro", default="fuzz-repro.json",
        help="replay file path for a shrunk failure "
             "(default: fuzz-repro.json)",
    )
    p_fuzz.add_argument(
        "--replay", metavar="FILE",
        help="re-run a recorded replay file; exit 0 iff the failure "
             "signature reproduces",
    )
    p_fuzz.add_argument(
        "--json", action="store_true",
        help="canonical machine-readable report",
    )
    p_fuzz.add_argument(
        "--check", action="store_true",
        help="fail unless coverage closed and no real divergence surfaced",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_trace = sub.add_parser(
        "trace", help="run with tracing on; export Chrome trace JSON"
    )
    _add_common(p_trace)
    _add_frames(p_trace)
    p_trace.add_argument(
        "-o", "--output", default="trace.json",
        help="Chrome trace_event JSON path (default: trace.json)",
    )
    p_trace.add_argument(
        "--categories", action="append", default=[],
        help="record only these categories (repeatable or comma-separated:"
             " kernel, bus, reconfig, firmware, warning; opt-in extras:"
             " exec = artifact-cache hit/miss counters)",
    )
    p_trace.add_argument(
        "--timeline", type=int, nargs="?", const=40, default=0,
        metavar="N", help="also print the first N timeline rows (default 40)",
    )
    p_trace.add_argument(
        "--summary", action="store_true",
        help="also print per-category span/instant totals",
    )
    p_trace.add_argument(
        "--wall-clock", action="store_true",
        help="include wall-clock offsets (makes the file non-deterministic)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
