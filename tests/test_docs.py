"""Documentation hygiene as part of tier-1: links resolve, modules
documented, documented CLI flags and ``repro.…`` names exist.

Thin pytest wrapper over ``tools/check_docs.py`` so doc rot fails the
normal test run, not only the dedicated CI job.
"""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


checker = _load_checker()


def test_markdown_corpus_nonempty():
    files = checker.markdown_files()
    names = {f.name for f in files}
    assert "README.md" in names
    assert "architecture.md" in names and "tracing.md" in names
    assert "paper-mapping.md" in names


def test_internal_links_resolve():
    assert checker.check_links() == []


def test_public_modules_have_docstrings():
    assert checker.check_docstrings() == []


def test_documented_cli_flags_exist():
    assert checker.check_cli_flags() == []


def test_cli_options_cover_all_subcommands():
    options = checker.cli_options()
    for sub in ("run", "campaign", "soak", "fuzz", "trace"):
        assert sub in options
    assert "--jobs" in options["campaign"]
    assert "--jobs" in options["soak"]
    assert "--jobs" in options["fuzz"]


def test_extract_cli_refs_attribution():
    refs = checker.extract_cli_refs(
        "PYTHONPATH=src python -m repro fuzz --budget 4 --jobs=4 "
        "&& python -m repro soak --check"
    )
    assert refs == [("fuzz", ["--budget", "--jobs"]), ("soak", ["--check"])]


def test_stale_flag_would_be_caught():
    options = checker.cli_options()
    [(sub, flags)] = checker.extract_cli_refs("repro campaign --no-such-flag")
    assert sub in options
    assert flags == ["--no-such-flag"]
    assert flags[0] not in options[sub]


def test_planning_notes_are_not_cli_references(tmp_path):
    retired = "`repro campaign --no-such-flag`\n"
    for name in ("TODO.md", "ROADMAP.md", "CHANGES.md"):
        (tmp_path / name).write_text(f"retired here: {retired}")
    assert checker.check_cli_flags(tmp_path) == []
    (tmp_path / "README.md").write_text(f"run {retired}")
    assert checker.check_cli_flags(tmp_path) == [
        "README.md:1: `repro campaign` has no option --no-such-flag"
    ]


def test_prose_is_not_scanned_for_flags(tmp_path):
    md = tmp_path / "x.md"
    md.write_text("the repro campaign --bogus flag is prose, not code\n")
    assert list(checker.iter_code_texts(md)) == []


def test_documented_dotted_names_resolve():
    assert checker.check_dotted_names() == []


def test_dotted_name_resolution():
    assert checker.resolve_dotted("repro.verif")
    assert checker.resolve_dotted("repro.verif.campaign.run_system")
    assert checker.resolve_dotted("repro.analysis.profile_one_frame")
    assert not checker.resolve_dotted("repro.analysis.no_such_name")
    assert not checker.resolve_dotted("repro.no_such_module.thing")


def test_dotted_names_glued_to_paths_are_not_references():
    found = [
        m.group(0)
        for m in checker._DOTTED_NAME_RE.finditer(
            "fuzz-repro.json src/repro.egg-info ./repro.x repro.cli.main"
        )
    ]
    assert found == ["repro.cli.main"]


def test_cli_entrypoint_exit_status(capsys):
    assert checker.main() == 0
    assert "OK" in capsys.readouterr().out
