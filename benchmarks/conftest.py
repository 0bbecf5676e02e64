"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Output
goes three ways: printed to stdout, written under
``benchmarks/results/``, and attached to pytest-benchmark's
``extra_info`` so it survives in the JSON export.

Geometry note: the paper simulates 320x240 road video on ModelSim; the
default benchmark geometry is scaled down (see ``BENCH_GEOMETRY``) so
the whole harness runs in minutes.  Set ``REPRO_FULL_RES=1`` to run the
Table II benchmark at the paper's full 320x240 geometry.
"""

import os
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


#: scaled-down default geometry (the ``scaled`` scenario)
BENCH_GEOMETRY = _geometry("scaled")
#: the paper's geometry (320x240, 4K-word SimB)
FULL_GEOMETRY = _geometry("paper")

#: small geometry for the many-run campaign benches (``tiny``)
CAMPAIGN_GEOMETRY = _geometry("tiny")


def geometry(full_env_var: str = "REPRO_FULL_RES") -> dict:
    if os.environ.get(full_env_var) == "1":
        return dict(FULL_GEOMETRY)
    return dict(BENCH_GEOMETRY)


def publish(name: str, text: str, benchmark=None) -> None:
    """Print a reproduced table and persist it under results/."""
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
