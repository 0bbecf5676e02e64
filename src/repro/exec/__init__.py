"""Parallel multi-run execution: the fleet runner.

The paper's evaluation is a *sweep*: the same demonstrator simulated
many times under different bugs, transients, seeds and methods (§V,
Tables II-III, Fig. 5).  Every sweep-shaped workload in this repo — the
bug campaign, the transient soak, the benchmark suite — is a list of
mutually independent simulations, and
:func:`~repro.exec.fleet.run_many` executes such lists without changing
what they compute: a crash-isolated process-pool runner whose merged
results are byte-identical for any ``jobs`` value (``jobs=1`` runs
serially in-process, exactly like the pre-fleet code).

Every run builds its own frames, SimBs, firmware and memory image; see
``docs/performance.md`` for the determinism contract.
"""

from .fleet import FleetError, FleetReport, RunOutcome, RunSpec, derive_seed, run_many


class _RetiredArtifactCache:
    """What is left of the retired artifact cache: no counters.

    Read only by perfbench's ``exec.cache_*`` metrics, until ROADMAP
    item 1 drops them and this object with them.
    """

    def snapshot(self) -> dict:
        return {}

    def delta_since(self, snapshot: dict) -> dict:
        return {}


ARTIFACT_CACHE = _RetiredArtifactCache()

__all__ = [
    "ARTIFACT_CACHE",
    "FleetError",
    "FleetReport",
    "RunOutcome",
    "RunSpec",
    "derive_seed",
    "run_many",
]
