"""Interp-vs-codegen parity at the system level.

The codegen backend's contract is observational identity: everything a
report serializes — scoreboard verdicts, coverage hits, interrupt and
monitor counts, DCR read-back, simulated time — must be byte-identical
to the interpreter's, because campaign and fuzz reports are
byte-compared across runs.  These tests run the same scenario under
both backends and compare the canonical JSON.
"""

from dataclasses import replace

import pytest

from repro.analysis.reporting import canonical_json
from repro.system.scenarios import scenario
from repro.verif import run_system
from repro.verif.fuzz import ScenarioGenerator, _run_side, _side_json


def _fuzz_side_json(index: int, method: str, backend: str) -> str:
    sc = ScenarioGenerator(2013).scenario(index)
    config = replace(sc.config(method), backend=backend)
    return canonical_json(_side_json(_run_side(sc, config)))


# seed 2013's first four scenarios cover cfg_mhz 25/50/100, fault
# tolerance on and off, and the dma_stall, truncated_simb and
# fifo_backpressure transients
@pytest.mark.parametrize("method", ["resim", "vmux"])
@pytest.mark.parametrize("index", range(4))
def test_fuzz_side_bytes_identical_across_backends(index, method):
    assert _fuzz_side_json(index, method, "interp") == _fuzz_side_json(
        index, method, "codegen"
    )


def test_tiny_run_observables_identical_across_backends():
    def snap(backend):
        result = run_system(
            scenario("tiny", backend=backend), n_frames=2
        )
        return {
            "summary": result.summary(),
            "sim_time_ps": result.sim_time_ps,
            "frames": [
                result.frames_processed,
                result.frames_drawn,
                result.frames_dropped,
            ],
            "checks": [
                [c.feat_ok, c.vec_ok, c.overlay_ok] for c in result.checks
            ],
            "monitors": dict(sorted(result.monitors.items())),
            "anomalies": list(result.anomalies),
            "kernel_events": result.kernel_events,
        }

    assert canonical_json(snap("interp")) == canonical_json(snap("codegen"))


def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown execution backend"):
        scenario("tiny", backend="fast")
