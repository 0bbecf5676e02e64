"""Tests for the content-keyed artifact cache."""

import numpy as np
import pytest

from repro.exec.cache import ArtifactCache, content_key, merge_stats


def test_content_key_is_stable_and_injective_enough():
    k1 = content_key(("simb", 1, 2, None, False))
    k2 = content_key(("simb", 1, 2, None, False))
    k3 = content_key(("simb", 1, 2, None, True))
    assert k1 == k2
    assert k1 != k3
    # type-sensitive: 1 and "1" must not collide
    assert content_key((1,)) != content_key(("1",))


def test_get_builds_once_then_hits():
    cache = ArtifactCache()
    calls = []

    def build():
        calls.append(1)
        return [1, 2, 3]

    a = cache.get("demo", ("k",), build)
    b = cache.get("demo", ("k",), build)
    assert a is b and a == [1, 2, 3]
    assert len(calls) == 1
    assert cache.stats()["demo"] == {"hits": 1, "misses": 1}


def test_numpy_artifacts_are_frozen():
    cache = ArtifactCache()
    arr = cache.get("frame", ("f", 0), lambda: np.zeros(4, dtype=np.uint8))
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 1


def test_distinct_kinds_do_not_collide():
    cache = ArtifactCache()
    cache.get("a", (1,), lambda: "A")
    assert cache.get("b", (1,), lambda: "B") == "B"


def test_fifo_eviction_bounds_entries():
    cache = ArtifactCache(max_entries_per_kind=4)
    for i in range(10):
        cache.get("demo", (i,), lambda i=i: i)
    assert cache.entry_count() == 4
    # oldest evicted: re-fetching key 0 is a miss again
    before = cache.stats()["demo"]["misses"]
    cache.get("demo", (0,), lambda: 0)
    assert cache.stats()["demo"]["misses"] == before + 1


def test_snapshot_and_delta():
    cache = ArtifactCache()
    cache.get("demo", (1,), lambda: 1)
    snap = cache.snapshot()
    cache.get("demo", (1,), lambda: 1)  # hit
    cache.get("demo", (2,), lambda: 2)  # miss
    delta = cache.delta_since(snap)
    assert delta == {"demo": {"hits": 1, "misses": 1}}


def test_reset_stats_keeps_entries_warm():
    cache = ArtifactCache()
    cache.get("demo", (1,), lambda: 1)
    cache.reset_stats()
    assert cache.stats() == {}
    cache.get("demo", (1,), lambda: 1)
    assert cache.stats()["demo"] == {"hits": 1, "misses": 0}


def test_merge_stats_accumulates():
    merged = merge_stats(
        {"a": {"hits": 1, "misses": 2}},
        {"a": {"hits": 3, "misses": 0}, "b": {"hits": 0, "misses": 1}},
    )
    assert merged == {
        "a": {"hits": 4, "misses": 2},
        "b": {"hits": 0, "misses": 1},
    }


def test_merge_stats_sums_arbitrary_counters():
    # producers may report counters beyond the cache's own hits/misses
    merged = merge_stats(
        {"batch": {"runs": 4, "retried": 3, "skipped": 1}},
        {"batch": {"runs": 2, "skipped": 2}, "code": {"hits": 1}},
    )
    assert merged["batch"] == {
        "hits": 0,
        "misses": 0,
        "retried": 3,
        "runs": 6,
        "skipped": 3,
    }
    assert merged["code"] == {"hits": 1, "misses": 0}
