"""Parallel multi-run execution: the fleet runner and the artifact cache.

The paper's evaluation is a *sweep*: the same demonstrator simulated
many times under different bugs, transients, seeds and methods (§V,
Tables II-III, Fig. 5).  Every sweep-shaped workload in this repo — the
bug campaign, the transient soak, the benchmark suite — is a list of
mutually independent simulations, and this package is the layer that
executes such lists fast without changing what they compute:

* :mod:`~repro.exec.fleet` — :func:`~repro.exec.fleet.run_many`, a
  crash-isolated process-pool runner whose merged results are
  byte-identical for any ``jobs`` value (``jobs=1`` runs serially
  in-process, exactly like the pre-fleet code),
* :mod:`~repro.exec.cache` — a content-keyed artifact cache memoizing
  the expensive pure build steps (assembled firmware images, encoded
  SimB word streams, rendered video frames, pristine memory images)
  with per-kind hit/miss counters.

See ``docs/performance.md`` for the determinism contract and the cache
key catalogue.
"""

from .cache import ARTIFACT_CACHE, ArtifactCache
from .fleet import FleetError, FleetReport, RunOutcome, RunSpec, derive_seed, run_many

__all__ = [
    "ARTIFACT_CACHE",
    "ArtifactCache",
    "FleetError",
    "FleetReport",
    "RunOutcome",
    "RunSpec",
    "derive_seed",
    "run_many",
]
