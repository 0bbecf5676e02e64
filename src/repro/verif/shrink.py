"""Failing-case shrinking: minimize a divergent fuzz scenario.

A raw fuzz failure is rarely the best debugging vehicle — it carries
every randomized knob at whatever value the generator happened to draw.
:func:`shrink_scenario` greedily minimizes a failing
:class:`~repro.verif.fuzz.FuzzScenario` along the legal ranges declared
in :data:`~repro.system.scenarios.FUZZ_CONSTRAINTS`: fewer frames
first (the dominant cost lever), then fewer injected faults, then
smaller geometry and the remaining knobs — re-running the differential
after each candidate reduction and keeping it only when the failure
*signature* is preserved.

Signature preservation is deliberately subset-shaped: the candidate
must still fail, and every field it diverges on must already have been
divergent in the original failure.  Plain "still fails" would let the
shrinker wander onto an unrelated bug; exact equality would reject
legitimate reductions (a 3-frame failure whose scoreboard component
vanishes at 2 frames while the register-swap component persists is
still the same bug, one frame cheaper).

The result round-trips through a *replay file* — canonical JSON holding
the minimized scenario and its signature — consumable by
``repro fuzz --replay``, which re-runs the differential and checks the
recorded signature still reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..analysis.reporting import canonical_json
from ..system.scenarios import FUZZ_CONSTRAINTS
from .fuzz import FuzzRecord, FuzzScenario, run_differential, scenario_from_dict

__all__ = [
    "SHRINK_ORDER",
    "ShrinkStep",
    "ShrinkResult",
    "signature_preserved",
    "shrink_scenario",
    "shrink_first_failure",
    "write_replay_file",
    "load_replay_file",
    "replay",
]

#: the greedy pass order — cost levers first, cosmetic knobs last
SHRINK_ORDER: Tuple[str, ...] = (
    "n_frames",
    "transients",
    "width",
    "height",
    "simb_payload_words",
    "n_objects",
    "radius",
    "max_reconfig_attempts",
    "retry_backoff_cycles",
    "watchdog_cycles",
    "fault_tolerance",
)

REPLAY_KIND = "repro-fuzz-replay"
REPLAY_VERSION = 1


@dataclass(frozen=True)
class ShrinkStep:
    """One accepted reduction."""

    field: str
    before: object
    after: object

    def to_json_dict(self) -> dict:
        def enc(v):
            return [list(t) for t in v] if isinstance(v, tuple) else v

        return {"field": self.field, "before": enc(self.before),
                "after": enc(self.after)}


@dataclass
class ShrinkResult:
    original: FuzzScenario
    scenario: FuzzScenario
    signature: Tuple[str, ...]
    steps: List[ShrinkStep] = field(default_factory=list)
    evals: int = 0
    #: the minimized scenario's differential record (the repro evidence)
    record: Optional[FuzzRecord] = None

    def to_json_dict(self) -> dict:
        return {
            "original": self.original.to_json_dict(),
            "scenario": self.scenario.to_json_dict(),
            "signature": list(self.signature),
            "steps": [s.to_json_dict() for s in self.steps],
            "evals": self.evals,
        }


def signature_preserved(
    original: Tuple[str, ...], candidate: Tuple[str, ...]
) -> bool:
    """Candidate still fails, with no failure fields the original lacked."""
    return bool(candidate) and set(candidate) <= set(original)


def _transient_candidates(
    transients: Tuple[Tuple[str, float], ...]
) -> List[Tuple[Tuple[str, float], ...]]:
    """Reduced transient mixes: all gone first, then each dropped."""
    if not transients:
        return []
    out: List[Tuple[Tuple[str, float], ...]] = [()]
    if len(transients) > 1:
        for i in range(len(transients)):
            out.append(transients[:i] + transients[i + 1 :])
    return out


def _field_candidates(scenario: FuzzScenario, name: str) -> List[FuzzScenario]:
    """Legal strictly-smaller variants of one field, most aggressive first."""
    if name == "transients":
        return [
            replace(scenario, transients=mix)
            for mix in _transient_candidates(scenario.transients)
        ]
    constraint = FUZZ_CONSTRAINTS[name]
    return [
        replace(scenario, **{name: value})
        for value in constraint.shrink_candidates(getattr(scenario, name))
    ]


def shrink_scenario(
    scenario: FuzzScenario,
    signature: Tuple[str, ...],
    max_evals: int = 48,
) -> ShrinkResult:
    """Greedily minimize ``scenario`` while its failure reproduces.

    Walks :data:`SHRINK_ORDER` repeatedly; for each field, tries the
    declared shrink candidates most-aggressive-first and accepts the
    first one whose differential still fails with a preserved signature
    (see :func:`signature_preserved`).  Loops until a full pass accepts
    nothing or ``max_evals`` differentials have been spent.  Every
    evaluation is a fresh deterministic simulation pair, so the result
    is a pure function of ``(scenario, signature, max_evals)``.
    """
    result = ShrinkResult(
        original=scenario, scenario=scenario, signature=signature
    )
    best_record: Optional[FuzzRecord] = None

    def attempt(candidate: FuzzScenario) -> Optional[FuzzRecord]:
        if result.evals >= max_evals:
            return None
        result.evals += 1
        record = run_differential(candidate)
        if signature_preserved(signature, record.signature):
            return record
        return None

    improved = True
    while improved and result.evals < max_evals:
        improved = False
        for name in SHRINK_ORDER:
            for candidate in _field_candidates(result.scenario, name):
                record = attempt(candidate)
                if record is None:
                    continue
                before = (
                    result.scenario.transients
                    if name == "transients"
                    else getattr(result.scenario, name)
                )
                after = (
                    candidate.transients
                    if name == "transients"
                    else getattr(candidate, name)
                )
                result.steps.append(ShrinkStep(name, before, after))
                result.scenario = candidate
                best_record = record
                improved = True
                break  # candidates are ordered; first accept is best
            if result.evals >= max_evals:
                break

    if best_record is None:
        # nothing shrank — record the original failure as the evidence
        best_record = run_differential(result.scenario)
        result.evals += 1
    result.record = best_record
    result.signature = best_record.signature
    return result


def shrink_first_failure(report, max_evals: int = 48) -> Optional[ShrinkResult]:
    """Shrink the campaign's first shrinkable failure, folding the
    outcome into ``report.shrink`` (part of the canonical report).

    Fleet-error records (worker crash — no differential evidence) are
    skipped: there is no simulation-level signature to preserve.
    """
    for record in report.records:
        if record.failed and not record.error:
            result = shrink_scenario(
                record.scenario, record.signature, max_evals=max_evals
            )
            report.shrink = result.to_json_dict()
            return result
    return None


# ----------------------------------------------------------------------
# Replay files
# ----------------------------------------------------------------------
def write_replay_file(path, result: ShrinkResult, campaign_seed: int) -> None:
    """Write the minimized failure as a canonical-JSON replay file."""
    payload = {
        "kind": REPLAY_KIND,
        "version": REPLAY_VERSION,
        "campaign_seed": campaign_seed,
        "scenario": result.scenario.to_json_dict(),
        "signature": list(result.signature),
        "shrunk_from": result.original.to_json_dict(),
        "steps": [s.to_json_dict() for s in result.steps],
    }
    with open(path, "w") as fh:
        fh.write(canonical_json(payload))


def load_replay_file(path) -> Tuple[FuzzScenario, Tuple[str, ...]]:
    """Parse and validate a replay file; returns (scenario, signature)."""
    import json

    with open(path) as fh:
        data = json.load(fh)
    if data.get("kind") != REPLAY_KIND:
        raise ValueError(
            f"{path}: not a fuzz replay file (kind={data.get('kind')!r})"
        )
    if data.get("version") != REPLAY_VERSION:
        raise ValueError(
            f"{path}: unsupported replay version {data.get('version')!r}"
        )
    scenario = scenario_from_dict(data["scenario"])
    return scenario, tuple(data["signature"])


def replay(path) -> Tuple[bool, FuzzRecord, Tuple[str, ...]]:
    """Re-run a replay file's differential.

    Returns ``(reproduced, record, expected_signature)`` where
    ``reproduced`` means the recorded failure signature is preserved by
    the fresh run (same subset rule as the shrinker).
    """
    scenario, expected = load_replay_file(path)
    record = run_differential(scenario)
    # replay demands the *exact* recorded signature: a replay that fails
    # differently is evidence of nondeterminism, which is its own bug
    reproduced = record.signature == expected
    return reproduced, record, expected
