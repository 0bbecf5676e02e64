"""The record and report steps of ``tools/api_reach.py`` on a toy package."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "api_reach", REPO / "tools" / "api_reach.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


api_reach = _load_tool()

TOY = '''\
def used():
    return 1


def unused():
    return 2
'''


def _toy_module(tmp_path):
    package = tmp_path / "toypkg"
    package.mkdir()
    (package / "mod.py").write_text(TOY)
    spec = importlib.util.spec_from_file_location("toymod", package / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return package, mod


def test_reports_the_function_nothing_called(tmp_path):
    package, mod = _toy_module(tmp_path)
    table = api_reach.function_table(package)
    with api_reach.recording({}) as reached:
        assert mod.used() == 1
    missed = api_reach.unreached(table, api_reach.reached_lines(reached))
    assert missed == {"mod.py": [(5, "unused")]}
    assert api_reach.format_report("toypkg", missed).splitlines() == [
        "toypkg/mod.py",
        "      5  unused",
        "1 function(s) in 1 module(s) unreached",
    ]


def test_an_edit_during_the_run_does_not_shift_the_table(tmp_path):
    # the table is read before the run; a line inserted into the file
    # afterwards must not move `used` off its recorded code object
    package, mod = _toy_module(tmp_path)
    table = api_reach.function_table(package)
    path = package / "mod.py"
    path.write_text("import os\n" + path.read_text())
    with api_reach.recording({}) as reached:
        assert mod.used() == 1
    missed = api_reach.unreached(table, api_reach.reached_lines(reached))
    assert missed == {"mod.py": [(5, "unused")]}


def test_qualified_names_and_decorator_lines(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "class A:\n"
        "    @property\n"
        "    def x(self):\n"
        "        def inner():\n"
        "            pass\n"
    )
    assert api_reach.defined_functions(source) == [
        (2, "A.x"),
        (4, "A.x.<locals>.inner"),
    ]


TOY_MODEL = '''\
from dataclasses import dataclass


class Model:
    def __init__(self):
        self.spare = 0
        self.used = 1
        self.probed = 2

    def step(self):
        self.spare += 1


@dataclass
class Record:
    kept: int
    dropped: int = 0


def reader(model, record):
    return model.used + getattr(model, "probed") + record.kept
'''


def _toy_unread(tmp_path):
    package = tmp_path / "toypkg"
    package.mkdir()
    (package / "model.py").write_text(TOY_MODEL)
    return api_reach.unread_attributes(package, [package])


def test_reports_the_attribute_nothing_reads(tmp_path):
    # `used` is loaded, `probed` read through getattr with a constant
    # name; a bump (`+=`) is a write, not a read
    assert _toy_unread(tmp_path) == ["Model.spare", "Record.dropped"]


def test_allow_list_holds_the_unread_attributes(tmp_path):
    listed = tmp_path / "allow.txt"
    listed.write_text(
        "# header\n"
        "Model.spare  # a reason\n"
        "Record.dropped  # another\n"
    )
    allowed = api_reach.read_list(listed)
    assert allowed == {"Model.spare": "a reason", "Record.dropped": "another"}
    found = _toy_unread(tmp_path)
    assert api_reach.drift(found, allowed) == ([], [])
    del allowed["Model.spare"]
    allowed["Model.used"] = "stale"
    assert api_reach.drift(found, allowed) == (["Model.spare"], ["Model.used"])


def test_function_list_round_trip_keeps_reasons(tmp_path):
    path = tmp_path / "list.txt"
    entries = api_reach.function_entries(
        {"a.py": [(3, "f"), (9, "C.g")], "b.py": [(1, "h")]}
    )
    assert entries == ["a.py::C.g", "a.py::f", "b.py::h"]
    api_reach.write_list(path, "two lines\nof header", entries, {"a.py::f": "why"})
    assert path.read_text().splitlines()[:3] == [
        "# two lines", "# of header", f"a.py::C.g  # {api_reach.NO_REASON}"
    ]
    assert api_reach.read_list(path)["a.py::f"] == "why"


TOY_IMPORTS = '''\
from __future__ import annotations

import os
import os.path as osp
from typing import Dict, List

from .model import Model, reader

__all__ = ["reader"]


def size(table: Dict) -> int:
    return len(table) + os.sep.count("/")
'''


def test_reports_the_import_nothing_loads(tmp_path):
    # `os` and `Dict` are loaded, `reader` is re-exported through
    # `__all__`; the __future__ import and __init__ modules are exempt
    package = tmp_path / "toypkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .user import size\n")
    (package / "user.py").write_text(TOY_IMPORTS)
    assert api_reach.unused_imports(package) == [
        "user.py:4 osp", "user.py:5 List", "user.py:7 Model",
    ]


def test_repository_has_no_unused_imports():
    unused = api_reach.unused_imports(api_reach.PACKAGE)
    assert not unused, (
        f"imports under src/repro that nothing in their module loads: "
        f"{unused}; delete them, or list a re-export in the module's __all__"
    )


def test_repository_unread_attributes_match_the_allow_list():
    found = api_reach.unread_attributes(
        api_reach.PACKAGE, [REPO / d for d in api_reach.READER_DIRS]
    )
    allowed = api_reach.read_list(api_reach.ATTRIBUTE_LIST)
    unlisted, stale = api_reach.drift(found, allowed)
    assert not unlisted, (
        f"attributes written under src/repro that nothing reads: {unlisted}; "
        "delete them, or list each with the reason it stays in "
        "tools/unread_attributes.txt"
    )
    assert not stale, (
        f"tools/unread_attributes.txt lists {stale}, which are now read or "
        "gone; remove them from the list"
    )
    assert all(allowed.values()), "every allow-list entry needs a reason"


def test_committed_function_list_has_reasons_and_names_live_functions():
    listed = api_reach.read_list(api_reach.FUNCTION_LIST)
    assert listed, "tools/unreached_functions.txt is empty"
    no_reason = [e for e, why in listed.items() if why in ("", api_reach.NO_REASON)]
    assert not no_reason, f"give each entry a reason: {no_reason}"
    defined = {
        f"{path.relative_to(api_reach.PACKAGE).as_posix()}::{name}"
        for path in api_reach.PACKAGE.rglob("*.py")
        for _, name in api_reach.defined_functions(path)
    }
    gone = sorted(set(listed) - defined)
    assert not gone, (
        f"tools/unreached_functions.txt names functions that no longer "
        f"exist: {gone}; refresh it with `python tools/api_reach.py`"
    )
