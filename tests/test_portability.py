"""The package relies on no CPython implementation internals.

``pyproject.toml`` declares ``requires-python = ">=3.9"``; frame and
generator internals (``ctypes`` C-API calls, ``gi_frame``, ``f_locals``
write-back) change between CPython releases, so no module may use them.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_INTERNALS = re.compile(r"\bctypes\b|PyFrame_|\bgi_frame\b|\bf_locals\b")


def test_no_module_touches_interpreter_internals():
    hits = [
        f"{path.relative_to(SRC)}:{n}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if _INTERNALS.search(line)
    ]
    assert hits == []
