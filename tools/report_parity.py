#!/usr/bin/env python
"""Byte-compare the standard reports of a git ref against the working tree.

A kernel change must leave every report byte-identical to its parent.
This script runs the standard report set twice — once on a clean export
of ``REF`` (``git archive`` into a temporary directory), once on this
checkout's working tree — and ``cmp``s each pair of outputs:

* ``campaign --bug dpr.1 --bug dpr.4 --bug dpr.6b --frames 1 --jobs 2 --json``
* ``soak --frames 2 --seed 7 --jobs 2 --json``
* ``fuzz --budget 8 --wave 4 --jobs 2 --json``
* ``trace --scenario tiny --frames 1``: its stdout and the trace JSON

Each command's stdout and exit status are kept as files, so a changed
exit status is a difference too.  Every file that differs (or exists on
one side only) is named, and the exit status is 1 on any difference,
0 when every pair is identical and 2 on a usage or export error.

Run from anywhere inside the repository::

    python tools/report_parity.py HEAD~1
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Tuple

REPO = Path(__file__).resolve().parent.parent

#: (output name, ``python -m repro`` arguments); ``trace`` also writes
#: ``trace.json`` next to its stdout
STANDARD_SET: List[Tuple[str, List[str]]] = [
    ("campaign", ["campaign", "--bug", "dpr.1", "--bug", "dpr.4",
                  "--bug", "dpr.6b", "--frames", "1", "--jobs", "2", "--json"]),
    ("soak", ["soak", "--frames", "2", "--seed", "7", "--jobs", "2", "--json"]),
    ("fuzz", ["fuzz", "--budget", "8", "--wave", "4", "--jobs", "2", "--json"]),
    ("trace", ["trace", "--scenario", "tiny", "--frames", "1",
               "-o", "trace.json"]),
]


def run_reports(tree: Path, out: Path) -> None:
    """Run :data:`STANDARD_SET` on the sources under ``tree/src`` into ``out``."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, args in STANDARD_SET:
        with open(out / f"{name}.out", "wb") as stdout:
            rc = subprocess.call(
                [sys.executable, "-m", "repro", *args],
                cwd=out, env=env, stdout=stdout, stderr=subprocess.DEVNULL,
            )
        (out / f"{name}.rc").write_text(f"{rc}\n")


def compare_dirs(a: Path, b: Path) -> List[str]:
    """Names of the files that differ between ``a`` and ``b``, sorted.

    A file present on one side only counts as different.
    """
    names_a = {p.name for p in a.iterdir() if p.is_file()}
    names_b = {p.name for p in b.iterdir() if p.is_file()}
    return sorted(
        name for name in names_a | names_b
        if name not in names_a or name not in names_b
        or not filecmp.cmp(a / name, b / name, shallow=False)
    )


def export_ref(ref: str, dest: Path) -> None:
    """Write the tree of ``ref`` into ``dest`` (no worktree is registered)."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", ref],
        check=True, stdout=subprocess.PIPE,
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="report-parity-") as tmp:
        root = Path(tmp)
        try:
            export_ref(args.ref, root / "tree")
        except (subprocess.CalledProcessError, OSError) as exc:
            print(f"report_parity: cannot export {args.ref!r}: {exc}", file=sys.stderr)
            return 2
        run_reports(root / "tree", root / "ref")
        run_reports(REPO, root / "work")
        differ = compare_dirs(root / "ref", root / "work")
    if differ:
        print(f"report_parity: {len(differ)} file(s) differ from {args.ref}:")
        for name in differ:
            print(f"  {name}")
        return 1
    print(f"report_parity: all {len(STANDARD_SET)} reports identical to {args.ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
