"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Output
goes three ways: printed to stdout, written under
``benchmarks/results/``, and attached to pytest-benchmark's
``extra_info`` so it survives in the JSON export.

Geometry note: the paper simulates 320x240 road video on ModelSim.
Table II runs that frame (``PAPER_GEOMETRY``); the other benches use a
scaled-down geometry (``BENCH_GEOMETRY``) or the campaign one
(``CAMPAIGN_GEOMETRY``) so the whole harness runs in under a minute.

Every file under ``results/`` holds only deterministic columns, so a
rerun rewrites the same bytes; wall-clock figures are printed only.
"""

from pathlib import Path

import pytest

from repro.system.scenarios import SCENARIOS

RESULTS_DIR = Path(__file__).parent / "results"


def _geometry(name: str) -> dict:
    """Width, height and SimB payload words of scenario ``name``."""
    config = SCENARIOS[name]
    return dict(
        width=config.width,
        height=config.height,
        simb_payload_words=config.simb_payload_words,
    )


#: the paper's geometry (320x240, 4K-word SimB): Table II
PAPER_GEOMETRY = _geometry("paper")
#: scaled-down geometry (the ``scaled`` scenario)
BENCH_GEOMETRY = _geometry("scaled")

#: small geometry for the many-run campaign benches (``tiny``)
CAMPAIGN_GEOMETRY = _geometry("tiny")


def publish(name: str, text: str, benchmark=None) -> None:
    """Print a reproduced table and persist it under results/.

    ``text`` is committed, so it must hold no wall-clock figure.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if benchmark is not None:
        benchmark.extra_info["report"] = text


@pytest.fixture
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
