"""Tests for the command-line front end."""

import argparse

import pytest

from repro.cli import build_parser, main


def test_scenarios_command(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "tiny" in out and "paper" in out


def test_run_clean_exits_zero(capsys):
    code = main(["run", "--scenario", "tiny", "--frames", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_run_with_fault_exits_nonzero(capsys):
    code = main(["run", "--scenario", "tiny", "--frames", "1",
                 "--fault", "dpr.4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_bugs_list(capsys):
    assert main(["bugs"]) == 0
    out = capsys.readouterr().out
    assert "dpr.6b" in out and "hw.2" in out


def test_bugs_inject(capsys):
    code = main(["bugs", "dpr.4", "--scenario", "tiny", "--frames", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[vmux ] missed" in out
    assert "[resim] DETECTED" in out


def test_bugs_unknown_key(capsys):
    assert main(["bugs", "bogus"]) == 2


def test_bugs_rejects_method(capsys):
    # bugs always runs both methods with only the named bug injected
    with pytest.raises(SystemExit) as exc:
        main(["bugs", "dpr.4", "--method", "vmux"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def test_profile_command(capsys):
    code = main(["profile", "--scenario", "tiny"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CensusImg Engine" in out and "Overall" in out


@pytest.mark.parametrize("command", ["profile", "trace"])
def test_observer_commands_reject_backend(command, capsys):
    # the backend is picked in code (Simulator / SystemConfig) only, so
    # the commands that report on a run take no --backend either
    with pytest.raises(SystemExit) as exc:
        main([command, "--backend", "codegen"])
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


def _subcommands():
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices


def _options(command):
    return {
        s for a in _subcommands()[command]._actions for s in a.option_strings
    } - {"-h", "--help"}


def test_subcommand_set_is_pinned():
    # adding or retiring a command is a deliberate change to this list
    assert set(_subcommands()) == {
        "run", "bugs", "profile", "coverage", "scenarios", "timeline",
        "campaign", "soak", "fuzz", "trace",
    }


def test_no_command_accepts_backend():
    # the backend is picked in code (Simulator / SystemConfig) only
    for command in ("run", "bugs", "profile", "coverage",
                    "campaign", "soak", "fuzz", "trace"):
        assert "--backend" not in _options(command), command
    assert _options("bugs") == {"--scenario", "--frames"}
    assert _options("profile") == {"--scenario", "--method", "--fault"}


def test_profile_takes_no_frames(capsys):
    # profile always runs exactly one frame
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--frames", "2"])
    assert exc.value.code == 2
    assert "--frames" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--frames", "0"],
    ["bugs", "dpr.4", "--frames", "-1"],
    ["soak", "--frames", "0"],
    ["soak", "--jobs", "0"],
    ["campaign", "--jobs", "0"],
    ["campaign", "--frames", "0"],
    ["fuzz", "--budget", "0"],
    ["fuzz", "--jobs", "0"],
    ["fuzz", "--wave", "0"],
    ["fuzz", "--shrink-evals", "0"],
    ["run", "--frames", "two"],
], ids=" ".join)
def test_bad_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_coverage_command(capsys):
    code = main(["coverage", "--scenario", "tiny", "--frames", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "DPR coverage:" in out


def test_timeline_command(capsys):
    assert main(["timeline"]) == 0
    out = capsys.readouterr().out
    assert "Week" in out and "resim" in out


def test_soak_single_transient(capsys):
    code = main(["soak", "--frames", "2", "--seed", "7",
                 "--method", "resim", "--transient", "dma_stall",
                 "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dma_stall" in out and "outcomes:" in out


def test_soak_json_is_canonical(capsys):
    import json

    args = ["soak", "--frames", "2", "--seed", "7", "--method", "resim",
            "--transient", "payload_bitflip", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical: the replay guarantee
    assert json.loads(first)["ok"] is True


def test_soak_unknown_transient(capsys):
    assert main(["soak", "--transient", "bogus"]) == 2


def test_campaign_command(capsys):
    code = main(["campaign", "--bug", "dpr.1", "--frames", "1",
                 "--no-baseline", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dpr.1" in out and "ONLY ReSim" in out


def test_campaign_json_identical_across_jobs(capsys):
    args = ["campaign", "--bug", "dpr.1", "--frames", "1",
            "--no-baseline", "--json"]
    assert main(args + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel  # the --jobs determinism guarantee


def test_campaign_unknown_bug(capsys):
    assert main(["campaign", "--bug", "bogus"]) == 2


def test_trace_command_writes_chrome_json(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.json"
    code = main(["trace", "--scenario", "tiny", "--method", "resim",
                 "--frames", "1", "-o", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert str(out_path) in out
    doc = json.loads(out_path.read_text())
    cats = {e.get("cat") for e in doc["traceEvents"]}
    assert {"kernel", "bus", "reconfig", "firmware"} <= cats


def test_trace_category_filter(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.json"
    code = main(["trace", "--scenario", "tiny", "--frames", "1",
                 "--categories", "firmware,reconfig", "-o", str(out_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] != "M"}
    assert cats <= {"firmware", "reconfig"}
    assert "bus" not in cats


def test_method_override(capsys):
    code = main(["run", "--scenario", "tiny", "--method", "vmux",
                 "--frames", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[vmux]" in out


@pytest.mark.fuzz
def test_fuzz_clean_campaign_closes(capsys):
    code = main(["fuzz", "--budget", "8", "--wave", "4", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "coverage CLOSED" in out
    assert "13/13" in out


@pytest.mark.fuzz
def test_fuzz_json_identical_across_jobs(capsys):
    args = ["fuzz", "--budget", "4", "--wave", "4", "--json"]
    assert main(args + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "4"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel  # the --jobs determinism guarantee


@pytest.mark.fuzz
def test_fuzz_injected_divergence_shrinks_and_replays(tmp_path, capsys):
    repro_path = tmp_path / "repro.json"
    code = main(["fuzz", "--budget", "1", "--wave", "1",
                 "--inject-divergence", "sw.1",
                 "--repro", str(repro_path), "--check"])
    out = capsys.readouterr().out
    assert code == 1  # a real divergence fails --check
    assert "REAL divergence" in out
    assert "shrunk to 2 frame(s)" in out
    assert repro_path.exists()

    code = main(["fuzz", "--replay", str(repro_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "REPRODUCED" in out


@pytest.mark.fuzz
def test_fuzz_unknown_divergence_key(capsys):
    assert main(["fuzz", "--inject-divergence", "bogus"]) == 2


@pytest.mark.fuzz
def test_fuzz_replay_missing_file():
    with pytest.raises(FileNotFoundError):
        main(["fuzz", "--replay", "/nonexistent/repro.json"])
