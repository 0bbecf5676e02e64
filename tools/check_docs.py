#!/usr/bin/env python
"""Documentation hygiene checker.

Four checks, all cheap enough for every CI run:

1. **Internal links resolve** — every relative markdown link
   (``[text](path)`` or ``[text](path#anchor)``) in the repo's
   top-level ``*.md`` files and everything under ``docs/`` must point
   at a file that exists.  External links (``http://``, ``https://``,
   ``mailto:``) are skipped — CI must not depend on the network.

2. **Public modules have docstrings** — every importable module under
   ``src/repro`` (not starting with ``_``) must open with a module
   docstring.  The check reads source text, it never imports, so a
   module with heavy import-time side effects cannot break it.

3. **Documented CLI flags exist** — every ``repro <sub> --flag``
   mention inside a code context (fenced block or inline code span)
   must name a real subcommand and a real option of that subcommand,
   introspected from the live :func:`repro.cli.build_parser` tree.
   A renamed or deleted flag therefore rots no further than one CI
   run.  Only ``--long`` options are matched; flags on backslash
   continuation lines (no ``repro <sub>`` prefix) are out of scope.
   Only the reference documents are scanned, as in check 4.

4. **Documented names exist** — every dotted ``repro.…`` name inside a
   code context must resolve: the longest importable module prefix is
   imported and the rest is looked up with ``getattr``.  A name glued
   to a path or file name (``fuzz-repro.json``) is not a reference.
   Only the reference documents (``docs/``, ``README.md``,
   ``DESIGN.md``, ``EXPERIMENTS.md``) are scanned: the change log and
   the planning notes may name code that is gone or not yet written.

Exit status 0 when clean; 1 with a per-problem report otherwise.
Run directly (``python tools/check_docs.py``) or via the pytest
wrapper in ``tests/test_docs.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

REPO = Path(__file__).resolve().parent.parent

# [text](target) — but not images' inner () and not reference-style links
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")


def markdown_files(root: Path = REPO) -> List[Path]:
    """Top-level *.md plus everything under docs/, sorted for stable output."""
    files = sorted(root.glob("*.md")) + sorted((root / "docs").glob("**/*.md"))
    return [f for f in files if f.is_file()]


#: top-level documents that describe the code as it is now; the others
#: (the change log, the roadmap, task statements) are history and plans,
#: which name retired commands and modules on purpose
_REFERENCE_DOCS = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}


def reference_files(root: Path = REPO) -> List[Path]:
    """The markdown whose code references must be live: docs/ and the
    top-level reference documents."""
    return [
        f
        for f in markdown_files(root)
        if f.parent != root or f.name in _REFERENCE_DOCS
    ]


def iter_links(md_file: Path) -> Iterable[Tuple[int, str]]:
    """Yield (line_number, target) for each markdown link, skipping code fences."""
    in_fence = False
    for lineno, line in enumerate(md_file.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK_RE.finditer(line):
            yield lineno, match.group(1)


def check_links() -> List[str]:
    problems = []
    for md in markdown_files():
        for lineno, target in iter_links(md):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md.parent / path_part).resolve()
            if not resolved.exists():
                rel = md.relative_to(REPO)
                problems.append(
                    f"{rel}:{lineno}: broken link -> {target}"
                )
    return problems


def public_modules() -> List[Path]:
    pkg = REPO / "src" / "repro"
    return sorted(
        p for p in pkg.glob("**/*.py")
        if not p.name.startswith("_") or p.name == "__init__.py"
    )


def check_docstrings() -> List[str]:
    problems = []
    for py in public_modules():
        try:
            tree = ast.parse(py.read_text())
        except SyntaxError as exc:  # pragma: no cover - tier-1 would fail first
            problems.append(f"{py.relative_to(REPO)}: unparseable ({exc})")
            continue
        if ast.get_docstring(tree) is None:
            problems.append(
                f"{py.relative_to(REPO)}: missing module docstring"
            )
    return problems


_CLI_CMD_RE = re.compile(r"\brepro\s+([a-z][\w-]*)")
_CLI_FLAG_RE = re.compile(r"--[A-Za-z][\w-]*")
_INLINE_CODE_RE = re.compile(r"`([^`]+)`")


def iter_code_texts(md_file: Path) -> Iterable[Tuple[int, str]]:
    """Yield (line_number, text) for code contexts in a markdown file.

    Inside a code fence every line is a code text; outside, each
    inline ``code`` span is one.  Prose never reaches the CLI check.
    """
    in_fence = False
    for lineno, line in enumerate(md_file.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            yield lineno, line
        else:
            for match in _INLINE_CODE_RE.finditer(line):
                yield lineno, match.group(1)


def extract_cli_refs(text: str) -> List[Tuple[str, List[str]]]:
    """``repro <sub> ... --flag`` references in one code text.

    Returns ``[(subcommand, ["--flag", ...]), ...]``.  Flags are
    attributed to the nearest preceding ``repro <sub>`` on the same
    text, and an ``=value`` suffix is stripped.
    """
    refs = []
    matches = list(_CLI_CMD_RE.finditer(text))
    for i, match in enumerate(matches):
        tail = text[match.end():]
        if i + 1 < len(matches):
            tail = text[match.end():matches[i + 1].start()]
        flags = [t.split("=", 1)[0] for t in _CLI_FLAG_RE.findall(tail)]
        refs.append((match.group(1), flags))
    return refs


def cli_options() -> dict:
    """``{subcommand: {option strings}}`` from the live argparse tree."""
    import argparse

    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.cli import build_parser

    options = {}
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                options[name] = set(sub._option_string_actions)
    return options


def check_cli_flags(root: Path = REPO) -> List[str]:
    problems = []
    options = cli_options()
    for md in reference_files(root):
        rel = md.relative_to(root)
        for lineno, text in iter_code_texts(md):
            for sub, flags in extract_cli_refs(text):
                if sub not in options:
                    problems.append(
                        f"{rel}:{lineno}: unknown subcommand `repro {sub}`"
                    )
                    continue
                for flag in flags:
                    if flag not in options[sub]:
                        problems.append(
                            f"{rel}:{lineno}: `repro {sub}` has no "
                            f"option {flag}"
                        )
    return problems


_DOTTED_NAME_RE = re.compile(r"(?<![\w./-])repro(\.\w+)+")


def resolve_dotted(name: str) -> bool:
    """Does ``repro.a.b.c`` name a real module or attribute?"""
    import importlib

    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_dotted_names() -> List[str]:
    problems = []
    for md in reference_files():
        rel = md.relative_to(REPO)
        for lineno, text in iter_code_texts(md):
            for match in _DOTTED_NAME_RE.finditer(text):
                if not resolve_dotted(match.group(0)):
                    problems.append(
                        f"{rel}:{lineno}: `{match.group(0)}` does not resolve"
                    )
    return problems


def main() -> int:
    problems = (
        check_links() + check_docstrings() + check_cli_flags()
        + check_dotted_names()
    )
    if problems:
        print(f"check_docs: {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    n_md = len(markdown_files())
    n_py = len(public_modules())
    print(f"check_docs: OK ({n_md} markdown files, {n_py} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
