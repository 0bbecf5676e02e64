"""The standard reports, byte-compared with the files under ``tests/golden/``.

``tools/report_parity.py`` compares a git ref with the working tree by
hand; this test holds every change to the bytes of its
:data:`STANDARD_SET` (campaign, soak, fuzz and trace, stdout, exit
status and trace JSON) stored in the repository.  A report that changes
on purpose shows as a reviewable diff of the golden files.  To refresh
them after such a change, run this file as a script from the repository
root::

    python tests/test_golden_reports.py
"""

import importlib.util
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "report_parity", REPO / "tools" / "report_parity.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


parity = _load_tool()


def test_standard_reports_match_golden_bytes(tmp_path):
    out = tmp_path / "reports"
    parity.run_reports(REPO, out)
    differ = parity.compare_dirs(GOLDEN, out)
    assert not differ, (
        f"reports differ from tests/golden/: {', '.join(differ)}; if the "
        "change is intended, refresh with `python tests/test_golden_reports.py` "
        "and explain each changed report in CHANGES.md"
    )


if __name__ == "__main__":
    fresh = GOLDEN.with_name("golden.new")
    shutil.rmtree(fresh, ignore_errors=True)
    parity.run_reports(REPO, fresh)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    fresh.rename(GOLDEN)
    print(f"refreshed {len(list(GOLDEN.iterdir()))} files under {GOLDEN}")
    sys.exit(0)
