"""The package relies on no CPython implementation internals, and the
interpreter-only path loads none of the compiled backend.

``pyproject.toml`` declares ``requires-python = ">=3.9"``; frame and
generator internals (``ctypes`` C-API calls, ``gi_frame``, ``f_locals``
write-back) change between CPython releases, so no module may use them.
"""

import os
import re
import subprocess
import sys
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


_INTERP_RUN = """
import sys
import repro, repro.verif, repro.cli
from repro.system.scenarios import scenario
from repro.verif import run_system
assert run_system(scenario("tiny"), n_frames=1).frames_processed == 1
print("\\n".join(m for m in sorted(sys.modules) if "codegen" in m))
"""


def test_interp_run_imports_no_codegen():
    # the codegen package is imported lazily, only for backend="codegen";
    # a fresh interpreter keeps other tests' imports out of sys.modules
    result = subprocess.run(
        [sys.executable, "-c", _INTERP_RUN],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
