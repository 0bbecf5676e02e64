#!/usr/bin/env python
"""List the ``src/repro`` functions that no shipped entry point reaches.

Code that no run reaches is a candidate for deletion.  This script runs
the repository's entry points in this one process under a
``sys.setprofile`` hook, records every function called, and prints each
function defined under ``src/repro`` that was never called, grouped by
module.  It reports rather than gates: the exit status is 0 whatever it
finds.

The entry-point set, run with ``--jobs 1`` where a command takes it (but
for the one ``--jobs 2`` campaign below), so every task runs in this
process:

* every CLI subcommand: ``run`` under resim, vmux, dcs and ``tiny-ft``;
  ``bugs`` (list and one injection); ``scenarios``; ``timeline``;
  ``profile``; ``coverage``; ``campaign``; ``soak``; ``fuzz`` with a
  shrunk divergence and its ``--replay``; ``trace``;
* the CI gates' own paths: ``bench --check`` against the committed
  baseline, and a two-bug ``campaign --jobs 2``, which reaches the
  worker-fleet dispatcher (the calls its worker processes make are not
  recorded; the ``--jobs 1`` runs cover the same task code).  The
  profile hook slows the kernel several-fold, so the bench check runs
  with ``--tolerance 1`` and only reaches the comparison; it never
  rewrites the baseline;
* one ``run_system`` on the codegen backend;
* every script under ``examples/``;
* the ``benchmarks/`` harness (on a copy, so its result files in the
  checkout are left alone).

Commands run in a temporary directory.  A function reached only through
another path (a test, a worker process) is listed: read the list as
"nothing a user runs calls this", then check the tests before deleting.
Names that ``perfbench/`` uses (``ArtifactCache``, ``run_many_laned``,
``CampaignResult.run_failures``) stay listed, as the tool does not run
that harness; they are not deletion candidates while it pins them.

Run from anywhere inside the repository (takes a few minutes)::

    python tools/api_reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import shutil
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: ``(label, python -m repro arguments)`` run in the temporary directory
CLI_RUNS: List[Tuple[str, List[str]]] = [
    ("run resim", ["run", "--scenario", "tiny", "--method", "resim"]),
    ("run vmux", ["run", "--scenario", "tiny", "--method", "vmux"]),
    ("run dcs", ["run", "--scenario", "tiny", "--method", "dcs"]),
    ("run tiny-ft", ["run", "--scenario", "tiny-ft"]),
    ("bugs", ["bugs"]),
    ("bugs dpr.6b", ["bugs", "dpr.6b", "--scenario", "tiny", "--frames", "1"]),
    ("scenarios", ["scenarios"]),
    ("timeline", ["timeline"]),
    ("profile", ["profile", "--scenario", "tiny"]),
    ("coverage", ["coverage", "--scenario", "tiny", "--frames", "1"]),
    ("campaign", ["campaign", "--scenario", "tiny", "--frames", "1",
                  "--jobs", "1", "--json"]),
    ("campaign --jobs 2", ["campaign", "--bug", "dpr.1", "--bug", "dpr.4",
                           "--frames", "1", "--jobs", "2", "--json"]),
    ("soak", ["soak", "--frames", "2", "--seed", "7", "--jobs", "1", "--json"]),
    ("fuzz shrink", ["fuzz", "--budget", "4", "--wave", "4", "--jobs", "1",
                     "--inject-divergence", "dpr.1", "--repro", "repro.json"]),
    ("fuzz replay", ["fuzz", "--replay", "repro.json"]),
    ("trace", ["trace", "--scenario", "tiny", "--frames", "1",
               "-o", "trace.json", "--timeline", "--summary"]),
    ("bench --check", ["bench", "--repeats", "1", "--check", "--tolerance",
                       "1", "--baseline",
                       str(REPO / "benchmarks" / "BENCH_kernel.json")]),
]


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
@contextlib.contextmanager
def recording(reached: Dict[int, object]):
    """Add the code object of every Python call made inside the block
    to ``reached`` (keyed by ``id``; the value keeps the code alive, so
    an id is never reused)."""

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in reached:
                reached[id(code)] = code

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        yield reached
    finally:
        threading.setprofile(None)
        sys.setprofile(None)


def reached_lines(reached: Dict[int, object]) -> Set[Tuple[str, int]]:
    """``(real path, first line)`` of every recorded code object."""
    real: Dict[str, str] = {}
    out = set()
    for code in reached.values():
        name = code.co_filename
        if name not in real:
            real[name] = os.path.realpath(name)
        out.add((real[name], code.co_firstlineno))
    return out


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def defined_functions(path: Path) -> List[Tuple[int, str]]:
    """``(first line, qualified name)`` of every function in ``path``.

    The first line is that of the first decorator when there is one,
    as in a code object's ``co_firstlineno``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found: List[Tuple[int, str]] = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                found.append((first, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return sorted(found)


def unreached(
    package: Path, reached: Iterable[Tuple[str, int]]
) -> Dict[str, List[Tuple[int, str]]]:
    """Functions under ``package`` whose ``(real path, first line)`` is
    not in ``reached``, as ``{module path relative to package: [(line,
    qualified name), ...]}``; modules with nothing unreached are left out."""
    hit = set(reached)
    out: Dict[str, List[Tuple[int, str]]] = {}
    for path in sorted(package.rglob("*.py")):
        real = os.path.realpath(path)
        missed = [
            (line, name)
            for line, name in defined_functions(path)
            if (real, line) not in hit
        ]
        if missed:
            out[path.relative_to(package).as_posix()] = missed
    return out


def format_report(
    package_name: str, missed: Dict[str, List[Tuple[int, str]]]
) -> str:
    """The report text: each module, its unreached functions, a total."""
    lines = []
    for module, funcs in missed.items():
        lines.append(f"{package_name}/{module}")
        lines.extend(f"  {line:5d}  {name}" for line, name in funcs)
    total = sum(len(funcs) for funcs in missed.values())
    lines.append(f"{total} function(s) in {len(missed)} module(s) unreached")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The entry-point set
# ----------------------------------------------------------------------
def _quietly(label: str, fn: Callable[[], object]) -> None:
    """Run ``fn`` with its output swallowed; report a failure, go on."""
    sink = io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            fn()
    except SystemExit as exc:
        code = exc.code
    except Exception:  # noqa: BLE001 - a report, not a gate
        print(f"api_reach: {label} raised:", file=sys.stderr)
        traceback.print_exc()
        return
    if code not in (None, 0):
        print(f"api_reach: {label} exited {code}", file=sys.stderr)
    else:
        print(f"api_reach: ran {label}", file=sys.stderr)


def run_entry_points(workdir: Path) -> None:
    """Run every entry point with ``workdir`` as the current directory."""
    from repro.cli import main as cli_main

    for label, args in CLI_RUNS:
        _quietly(label, lambda args=args: sys.exit(cli_main(args)))

    def codegen_run():
        from dataclasses import replace

        from repro.system.scenarios import scenario
        from repro.verif import run_system

        run_system(replace(scenario("tiny"), backend="codegen"), 1)

    _quietly("run_system codegen", codegen_run)

    argv = sys.argv
    for example in sorted((REPO / "examples").glob("*.py")):
        sys.argv = [str(example)]
        try:
            _quietly(
                f"examples/{example.name}",
                lambda example=example: runpy.run_path(
                    str(example), run_name="__main__"
                ),
            )
        finally:
            sys.argv = argv

    def harness():
        import pytest

        shutil.copytree(REPO / "benchmarks", workdir / "benchmarks")
        code = pytest.main([
            str(workdir / "benchmarks"), "--benchmark-disable", "-q",
            "-p", "no:cacheprovider", "--rootdir", str(workdir),
        ])
        if code != 0:
            raise SystemExit(int(code))

    _quietly("benchmarks harness", harness)


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    reached: Dict[int, object] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="api-reach-") as tmp:
        os.chdir(tmp)
        try:
            with recording(reached):
                run_entry_points(Path(tmp))
        finally:
            os.chdir(cwd)
    print(format_report("src/repro", unreached(PACKAGE, reached_lines(reached))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
