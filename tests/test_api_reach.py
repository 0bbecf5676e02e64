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


def test_reports_the_function_nothing_called(tmp_path):
    package = tmp_path / "toypkg"
    package.mkdir()
    (package / "mod.py").write_text(TOY)
    spec = importlib.util.spec_from_file_location("toymod", package / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    with api_reach.recording({}) as reached:
        assert mod.used() == 1
    missed = api_reach.unreached(package, api_reach.reached_lines(reached))
    assert missed == {"mod.py": [(5, "unused")]}
    assert api_reach.format_report("toypkg", missed).splitlines() == [
        "toypkg/mod.py",
        "      5  unused",
        "1 function(s) in 1 module(s) unreached",
    ]


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
