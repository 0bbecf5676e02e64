#!/usr/bin/env python
"""Find the ``src/repro`` code that nothing uses, and keep the lists honest.

Code that no run reaches, state that nothing reads, and imports that
nothing uses are candidates for deletion.  This script has three
passes; the first two are checked against a list committed next to it,
the third allows none.

**Unreached functions** (dynamic; a few minutes).  The script runs the
repository's entry points in this one process under a
``sys.setprofile`` hook, records every function called, and lists each
function defined under ``src/repro`` that was never called.  It prints
them grouped by module, with line numbers, and rewrites
``tools/unreached_functions.txt``: one ``module::qualified.name  #
reason`` line per function, keyed by name, not by line.  Reasons of
entries already in the file are kept; a new entry gets ``(no reason
yet)``, which tier-1 rejects until someone writes one.  It names on
stderr every entry added or removed since the committed file.  It
always exits 0: CI reruns it and fails when ``git diff`` shows the
file changed.  To refresh the list after a change that moves it, rerun
the script and commit the file, with a reason for each new entry.

The entry-point set, run with ``--jobs 1`` where a command takes it (but
for the one ``--jobs 2`` campaign below), so every task runs in this
process:

* every CLI subcommand: ``run`` under resim, vmux, dcs and ``tiny-ft``;
  ``bugs`` (list and one injection); ``scenarios``; ``timeline``;
  ``profile``; ``coverage``; ``campaign``; ``soak``; ``fuzz`` with a
  shrunk divergence and its ``--replay``; ``trace``;
* the CI gates' own path: a two-bug ``campaign --jobs 2``, which
  reaches the worker-fleet dispatcher (the calls its worker processes
  make are not recorded; the ``--jobs 1`` runs cover the same task
  code);
* one ``run_system`` on the codegen backend;
* every script under ``examples/``;
* the ``benchmarks/`` harness (on a copy, so its result files in the
  checkout are left alone).

Commands run in a temporary directory.  A function reached only through
another path (a test, a worker process) is listed: read the list as
"nothing a user runs calls this", then check the tests before deleting.
Names that ``perfbench/`` uses (``ARTIFACT_CACHE``, ``run_many_laned``,
``CampaignResult.run_failures``) stay listed, as the script does not
run that harness; they are not deletion candidates while it pins them.

**Unread attributes** (static; well under a second).  An attribute is
*written* when a method of a ``src/repro`` class stores ``self.<name>``
or a dataclass declares it as a field.  It is *read* when any code in
``src/``, ``examples/``, ``benchmarks/``, ``perfbench/`` or ``tools/``
loads an attribute of that name, or passes the name as a string
constant to ``getattr``/``hasattr``.  Tests do not count as readers.
Each written attribute that nothing reads must be listed, with the
reason it stays, in ``tools/unread_attributes.txt`` as ``Class.attr  #
reason``; ``tests/test_api_reach.py`` holds the repository to that
list, so a new write-only counter fails tier-1.

**Unused imports** (static).  A module-level import in a
non-``__init__`` module under ``src/repro`` is unused when that module
never loads the bound name and does not list it in ``__all__``.  There
is no allow-list: ``tests/test_api_reach.py`` fails tier-1 on any.
Tests are left out, as a pytest fixture imported by name looks unused.

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
#: the committed list of unreached functions, with reasons
FUNCTION_LIST = REPO / "tools" / "unreached_functions.txt"
#: the committed allow-list of write-only attributes, with reasons
ATTRIBUTE_LIST = REPO / "tools" / "unread_attributes.txt"
#: the code whose attribute loads count as readers
READER_DIRS = ("src", "examples", "benchmarks", "perfbench", "tools")
#: the reason a new list entry gets until someone writes one
NO_REASON = "(no reason yet)"
FUNCTION_LIST_HEADER = """\
src/repro functions that no shipped entry point reaches, one
`module::qualified.name  # reason` per line.  Written by
`python tools/api_reach.py`, which keeps the reasons already here; give
each new entry a reason and commit the file."""

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


def function_table(package: Path) -> Dict[str, Tuple[str, List[Tuple[int, str]]]]:
    """``{module path relative to package: (real path, [(first line,
    qualified name), ...])}`` for every module under ``package``, read
    from the files as they are now.

    :func:`main` builds it before the entry points run, so the line
    numbers match the code objects the run records even if a file is
    edited while it runs.
    """
    return {
        path.relative_to(package).as_posix(): (
            os.path.realpath(path), defined_functions(path)
        )
        for path in sorted(package.rglob("*.py"))
    }


def unreached(
    table: Dict[str, Tuple[str, List[Tuple[int, str]]]],
    reached: Iterable[Tuple[str, int]],
) -> Dict[str, List[Tuple[int, str]]]:
    """Functions of a :func:`function_table` whose ``(real path, first
    line)`` is not in ``reached``, as ``{module: [(line, qualified name),
    ...]}``; modules with nothing unreached are left out."""
    hit = set(reached)
    out: Dict[str, List[Tuple[int, str]]] = {}
    for module, (real, funcs) in table.items():
        missed = [(line, name) for line, name in funcs if (real, line) not in hit]
        if missed:
            out[module] = missed
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


def function_entries(missed: Dict[str, List[Tuple[int, str]]]) -> List[str]:
    """``module::qualified.name`` list keys of an :func:`unreached` result."""
    return sorted(
        {f"{module}::{name}" for module, funcs in missed.items() for _, name in funcs}
    )


# ----------------------------------------------------------------------
# The committed lists
# ----------------------------------------------------------------------
def read_list(path: Path) -> Dict[str, str]:
    """``{entry: reason}`` of a list file: one ``entry  # reason`` per
    line; blank lines and lines starting with ``#`` are comments."""
    out: Dict[str, str] = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            entry, _, reason = line.partition("#")
            out[entry.strip()] = reason.strip()
    return out


def write_list(path: Path, header: str, entries: Iterable[str],
               reasons: Dict[str, str]) -> None:
    """Write ``entries`` under a ``#`` comment ``header``, each with its
    reason from ``reasons`` or :data:`NO_REASON`."""
    lines = [f"# {line}".rstrip() for line in header.splitlines()]
    lines += [f"{e}  # {reasons.get(e) or NO_REASON}" for e in entries]
    path.write_text("\n".join(lines) + "\n")


def drift(found: Iterable[str], listed: Iterable[str]) -> Tuple[List[str], List[str]]:
    """``(found but not listed, listed but not found)``, each sorted."""
    found, listed = set(found), set(listed)
    return sorted(found - listed), sorted(listed - found)


# ----------------------------------------------------------------------
# Unread attributes (static)
# ----------------------------------------------------------------------
def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", ""
        )
        if name == "dataclass":
            return True
    return False


def written_attributes(path: Path) -> Set[str]:
    """``Class.attr`` of every ``self.attr`` store in a method of a class
    in ``path``, and of every field of a dataclass there."""
    out: Set[str] = set()

    def visit(node, cls) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    out.update(
                        f"{child.name}.{stmt.target.id}"
                        for stmt in child.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)
                    )
                visit(child, child.name)
                continue
            if (
                cls is not None
                and isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Store)
                and isinstance(child.value, ast.Name)
                and child.value.id == "self"
            ):
                out.add(f"{cls}.{child.attr}")
            visit(child, cls)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return out


def read_attributes(path: Path) -> Set[str]:
    """Every attribute name ``path`` loads, and every string constant it
    passes to ``getattr``/``hasattr`` as the name."""
    out: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            out.add(node.args[1].value)
    return out


def unread_attributes(package: Path, readers: Iterable[Path]) -> List[str]:
    """Sorted ``Class.attr`` written under ``package`` whose name no
    ``.py`` file under ``readers`` reads."""
    read: Set[str] = set()
    for root in readers:
        for path in root.rglob("*.py"):
            read |= read_attributes(path)
    written: Set[str] = set()
    for path in package.rglob("*.py"):
        written |= written_attributes(path)
    return sorted(a for a in written if a.partition(".")[2] not in read)


# ----------------------------------------------------------------------
# Unused imports (static)
# ----------------------------------------------------------------------
def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    out: Set[str] = set()
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
            and isinstance(stmt.value, (ast.List, ast.Tuple))
        ):
            out.update(
                e.value for e in stmt.value.elts if isinstance(e, ast.Constant)
            )
    return out


def unused_imports(package: Path) -> List[str]:
    """``module:line name`` of every module-level import in a
    non-``__init__`` module under ``package`` whose name that module
    never loads and does not list in ``__all__``."""
    out: List[str] = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        } | _exported(tree)
        module = path.relative_to(package).as_posix()
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name != "*" and name not in loaded:
                        out.append(f"{module}:{stmt.lineno} {name}")
    return out


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
    table = function_table(PACKAGE)
    reached: Dict[int, object] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="api-reach-") as tmp:
        os.chdir(tmp)
        try:
            with recording(reached):
                run_entry_points(Path(tmp))
        finally:
            os.chdir(cwd)
    missed = unreached(table, reached_lines(reached))
    print(format_report("src/repro", missed))

    reasons = read_list(FUNCTION_LIST)
    entries = function_entries(missed)
    added, gone = drift(entries, reasons)
    for entry in added:
        print(f"api_reach: newly unreached: {entry}", file=sys.stderr)
    for entry in gone:
        print(f"api_reach: now reached or gone: {entry}", file=sys.stderr)
    write_list(FUNCTION_LIST, FUNCTION_LIST_HEADER, entries, reasons)
    return 0


if __name__ == "__main__":
    sys.exit(main())
