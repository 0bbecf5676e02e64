"""The compare step of ``tools/report_parity.py`` on two output trees."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "report_parity", REPO / "tools" / "report_parity.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


parity = _load_tool()


def _tree(root: Path, files: dict) -> Path:
    root.mkdir()
    for name, data in files.items():
        (root / name).write_bytes(data)
    return root


def test_identical_trees_compare_equal(tmp_path):
    files = {"campaign.out": b'{"runs": 3}\n', "campaign.rc": b"0\n"}
    a = _tree(tmp_path / "ref", files)
    b = _tree(tmp_path / "work", files)
    assert parity.compare_dirs(a, b) == []


def test_every_differing_file_is_named(tmp_path):
    a = _tree(
        tmp_path / "ref",
        {"campaign.out": b"same\n", "soak.out": b"a\n", "trace.json": b"[]"},
    )
    b = _tree(
        tmp_path / "work",
        {"campaign.out": b"same\n", "soak.out": b"b\n", "fuzz.out": b"{}"},
    )
    # a changed byte, and a file on one side only, both count
    assert parity.compare_dirs(a, b) == ["fuzz.out", "soak.out", "trace.json"]

