"""Verification environment: bug registry, scoreboards, campaign runner.

This package is the experimental engine behind the paper's evaluation:

* :mod:`~repro.verif.faults` — the catalogue of injectable bugs
  (Table III's selected bugs plus the rest of Figure 5's tally), each a
  switch that re-creates the historical defect in the DUT or driver,
* :mod:`~repro.verif.scoreboard` — golden-model checks of every buffer
  the system produces,
* :mod:`~repro.verif.campaign` — runs the system with a bug injected
  under Virtual Multiplexing and under ReSim and classifies the outcome
  (detected / missed / false alarm / not applicable); a run's detection
  machinery is the scoreboard plus the hardware-side checkers that
  ``_monitor_counts`` reads (INTC X, DCR chain, PLB protocol, ICAP
  framing and CRC, ...),
* :mod:`~repro.verif.coverage` — cover points over the reconfiguration
  machinery: which aspects of DPR a run exercised (``repro coverage``),
* :mod:`~repro.verif.transients` — seeded transient-fault injection and
  the soak campaign exercising the detect/abort/retry recovery stack,
* :mod:`~repro.verif.fuzz` — coverage-closure fuzzing: constrained-
  random scenarios differentially checked under ReSim vs VMux,
* :mod:`~repro.verif.shrink` — greedy minimization of failing fuzz
  scenarios, plus the replay-file round trip.
"""

from .coverage import DprCoverage
from .faults import BUGS, BugSpec, validate_fault_keys
from .transients import (
    TRANSIENTS,
    SoakReport,
    SoakRun,
    TransientSpec,
    run_soak_campaign,
)
from .scoreboard import FrameCheck, RunResult, SystemScoreboard
from .campaign import CampaignResult, run_bug_campaign, run_system
from .fuzz import (
    FuzzRecord,
    FuzzReport,
    FuzzScenario,
    ScenarioGenerator,
    run_differential,
    run_fuzz_campaign,
)
from .shrink import ShrinkResult, shrink_scenario

__all__ = [
    "DprCoverage",
    "BUGS",
    "BugSpec",
    "validate_fault_keys",
    "FrameCheck",
    "RunResult",
    "SystemScoreboard",
    "CampaignResult",
    "run_bug_campaign",
    "run_system",
    "TRANSIENTS",
    "TransientSpec",
    "SoakRun",
    "SoakReport",
    "run_soak_campaign",
    "FuzzScenario",
    "ScenarioGenerator",
    "FuzzRecord",
    "FuzzReport",
    "run_differential",
    "run_fuzz_campaign",
    "ShrinkResult",
    "shrink_scenario",
]
