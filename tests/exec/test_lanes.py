"""Counter merging for batch producers that report their own counters.

Producers (a batch runner, a cache) report per-kind counter dicts;
:func:`repro.exec.cache.merge_stats` must sum any integer counter, not
just the cache's own hits and misses.
"""

from repro.exec.cache import merge_stats


def test_merge_stats_sums_arbitrary_counters():
    merged = merge_stats(
        {"lane_blocks": {"lanes": 4, "vectorized": 3, "peeled": 1}},
        {"lane_blocks": {"lanes": 2, "peeled": 2}, "code": {"hits": 1}},
    )
    assert merged["lane_blocks"] == {
        "hits": 0,
        "lanes": 6,
        "misses": 0,
        "peeled": 3,
        "vectorized": 3,
    }
    assert merged["code"] == {"hits": 1, "misses": 0}
