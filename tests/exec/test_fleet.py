"""Tests for the crash-isolated fleet runner."""

import pytest

from repro.exec.fleet import FleetError, RunSpec, derive_seed, run_many


# --- module-level task functions (must be picklable) -------------------
def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _specs(n=6):
    return [RunSpec(f"sq:{i}", _square, {"x": i}) for i in range(n)]


def test_serial_matches_parallel():
    serial = run_many(_specs(), jobs=1)
    parallel = run_many(_specs(), jobs=3)
    assert serial.jobs == 1 and parallel.jobs == 3
    assert [o.value for o in serial.outcomes] == [o.value for o in parallel.outcomes]
    assert [o.key for o in parallel.outcomes] == [f"sq:{i}" for i in range(6)]
    assert parallel.ok


def test_task_failure_is_isolated():
    specs = _specs(3) + [RunSpec("bad", _boom, {"x": 9})]
    report = run_many(specs, jobs=2)
    assert not report.ok
    (bad,) = report.failures()
    assert bad.key == "bad"
    assert "boom 9" in bad.error
    # the healthy runs are unaffected
    assert report.value_of("sq:2") == 4


def test_worker_crash_is_retried():
    report = run_many(_specs(4), jobs=2, fault_injection={"sq:1": "crash"})
    assert report.ok
    assert report.worker_crashes == 1
    retried = next(o for o in report.outcomes if o.key == "sq:1")
    assert retried.attempts == 2
    assert retried.value == 1
    # crash recovery never reorders the merge
    assert [o.value for o in report.outcomes] == [0, 1, 4, 9]


def test_deterministic_crasher_is_marked_failed():
    # crash_retries=0: the injected crash exhausts the budget immediately
    report = run_many(
        _specs(3), jobs=2, crash_retries=0, fault_injection={"sq:0": "crash"}
    )
    (dead,) = report.failures()
    assert dead.key == "sq:0"
    assert "worker died" in dead.error
    assert report.value_of("sq:2") == 4


def test_duplicate_keys_rejected():
    with pytest.raises(FleetError, match="duplicate"):
        run_many([RunSpec("k", _square, {"x": 1}), RunSpec("k", _square, {"x": 2})])


def test_bad_jobs_rejected():
    with pytest.raises(FleetError, match="jobs"):
        run_many(_specs(2), jobs=0)


def test_injection_for_unknown_key_rejected():
    with pytest.raises(FleetError, match="unknown"):
        run_many(_specs(2), jobs=2, fault_injection={"nope": "crash"})


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, "resim", "dpr.1") == derive_seed(7, "resim", "dpr.1")
    assert derive_seed(7, "resim", "dpr.1") != derive_seed(7, "vmux", "dpr.1")
    assert 0 <= derive_seed("x") < 2**63


def test_what_perfbench_reads_of_the_retired_cache_is_empty():
    # perfbench's exec.cache_* metrics read these two names (ROADMAP item 1)
    from repro.exec import ARTIFACT_CACHE

    assert ARTIFACT_CACHE.snapshot() == {}
    assert ARTIFACT_CACHE.delta_since({}) == {}
    assert run_many(_specs(2), jobs=2).cache == {}
