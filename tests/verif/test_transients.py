"""The transient catalogue and the seeded soak campaign.

The determinism guard is the load-bearing test here: running the same
campaign twice with the same seed must produce byte-identical canonical
JSON, because the whole point of seeded injection is that a failing
soak run can be replayed exactly from its seed.
"""

import json

import pytest

from repro.analysis.reporting import canonical_json
from repro.verif import TRANSIENTS, run_soak_campaign
from repro.verif.transients import SoakReport


EXPECTED_KEYS = {
    "payload_bitflip",
    "truncated_simb",
    "dma_stall",
    "fifo_backpressure",
    "x_burst",
}


class TestCatalogue:
    def test_five_transients_registered(self):
        assert set(TRANSIENTS) == EXPECTED_KEYS

    def test_specs_are_complete(self):
        for spec in TRANSIENTS.values():
            assert spec.title and spec.description
            assert callable(spec.arm)

    def test_unknown_transient_rejected(self):
        with pytest.raises(KeyError, match="no_such"):
            run_soak_campaign(transients=["no_such"])


class TestRecovery:
    def test_bitflip_detected_and_recovered_under_resim(self):
        report = run_soak_campaign(
            methods=("resim",), transients=["payload_bitflip"],
            frames=2, seed=7,
        )
        (run,) = report.runs
        assert run.outcome == "recovered"
        assert run.detected_at_ps is not None
        assert run.detected_at_ps >= run.injected_at_ps
        assert run.result.monitors["simb_crc_failures"] >= 1
        # the driver retried with a refreshed image and finished clean
        assert any("attempt" in msg for _, msg in run.result.recovery_log)
        assert all(c.ok for c in run.result.checks)
        assert not run.result.hung

    def test_dma_stall_aborted_by_watchdog_under_resim(self):
        report = run_soak_campaign(
            methods=("resim",), transients=["dma_stall"],
            frames=2, seed=7,
        )
        (run,) = report.runs
        assert run.outcome == "recovered"
        assert run.result.monitors["icapctrl_transfer_aborts"] >= 1
        assert not run.result.hung

    def test_bitstream_transients_masked_under_vmux(self):
        """The paper's point: VMux never exercises the DPR datapath."""
        report = run_soak_campaign(
            methods=("vmux",), transients=["payload_bitflip", "dma_stall"],
            frames=2, seed=7,
        )
        assert [r.outcome for r in report.runs] == ["masked", "masked"]

    def test_no_silent_corruption_or_hangs(self):
        report = run_soak_campaign(frames=2, seed=7)
        assert isinstance(report, SoakReport)
        assert report.ok
        assert len(report.runs) == 2 * len(TRANSIENTS)
        for run in report.runs:
            assert run.outcome != "silent-corruption"
            assert not run.result.hung


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        kwargs = dict(
            methods=("resim",),
            transients=["payload_bitflip", "fifo_backpressure"],
            frames=2,
            seed=11,
        )
        a = canonical_json(run_soak_campaign(**kwargs).to_json_dict())
        b = canonical_json(run_soak_campaign(**kwargs).to_json_dict())
        assert a == b

    def test_different_seed_moves_injection(self):
        common = dict(
            methods=("resim",), transients=["payload_bitflip"], frames=2
        )
        a = run_soak_campaign(seed=1, **common)
        b = run_soak_campaign(seed=2, **common)
        assert a.runs[0].injected_at_ps != b.runs[0].injected_at_ps

    def test_json_dict_is_serializable_and_wall_clock_free(self):
        report = run_soak_campaign(
            methods=("resim",), transients=["dma_stall"], frames=2, seed=7
        )
        text = json.dumps(report.to_json_dict())
        assert "elapsed" not in text


class TestFailedRun:
    def test_failed_task_becomes_unrecovered_hung_placeholder(self, monkeypatch):
        def boom(**_kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.verif.transients._soak_one", boom)
        report = run_soak_campaign(
            jobs=1, methods=("resim",), transients=["dma_stall"]
        )
        (run,) = report.runs
        assert (run.method, run.transient) == ("resim", "dma_stall")
        assert run.outcome == "unrecovered"
        assert run.result.hung
        assert run.result.anomalies[0].startswith("fleet: run failed (")
        assert not report.ok
