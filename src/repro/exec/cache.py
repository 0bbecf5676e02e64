"""Content-keyed artifact cache for the expensive pure build steps.

Every system run re-creates the same by-construction-deterministic
artifacts: the SimB word streams (:func:`repro.reconfig.simb.build_simb`
with a fixed seed), the synthetic camera frames
(:meth:`repro.video.frames.FrameSequence.frame` is pure), the assembled
firmware image, the pristine initial memory image.  In a sweep — the
bug campaign, the soak, the benchmarks — those artifacts are rebuilt
for every (bug, method) combination although their inputs never change.

:class:`ArtifactCache` memoizes them under a *content key*: the caller
hashes every input that determines the artifact into the key, so equal
keys imply equal artifacts and a hit can never return stale data.  The
process-global :data:`ARTIFACT_CACHE` is what the build paths consult;
fleet workers each own their (process-local) instance, which is what
makes worker reuse across runs a *warm* cache.

Cached NumPy arrays are frozen (``writeable=False``) at insert: callers
that need a mutable copy — e.g. the per-run main-memory image — must
deep-copy, which is exactly the "copy a cached pristine image instead
of rebuilding" discipline the campaign hot path relies on.  Hit/miss
counters per kind are surfaced through the tracer (category ``exec``)
and ``repro bench --system``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable, Dict, Tuple

import numpy as np

__all__ = ["ArtifactCache", "ARTIFACT_CACHE", "content_key"]

#: entries kept per kind before the oldest is evicted (FIFO); sweeps
#: touch a handful of distinct configs, so this is generous headroom
DEFAULT_MAX_ENTRIES = 256


def _canonical(obj) -> str:
    """Stable textual encoding of a key object (primitives only)."""
    if isinstance(obj, (str, int, float, bool, bytes)) or obj is None:
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return "(" + ",".join(_canonical(o) for o in obj) + ")"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(o) for o in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted((_canonical(k), _canonical(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    raise TypeError(
        f"cache keys must be built from primitives/tuples/dicts, "
        f"got {type(obj).__name__}"
    )


def content_key(obj) -> str:
    """SHA-256 over the canonical encoding of ``obj``."""
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def _freeze(value):
    """Make NumPy arrays in ``value`` read-only (shallow containers too)."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value
    if isinstance(value, tuple):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return {k: _freeze(v) for k, v in value.items()}
    return value


class ArtifactCache:
    """A per-process memo table for pure build artifacts.

    ``get(kind, key, build)`` returns the cached artifact for
    ``(kind, key)`` or calls ``build()`` and caches its result.  ``key``
    may be any nesting of primitives, tuples and dicts; it must encode
    *every* input the artifact depends on.
    """

    def __init__(self, max_entries_per_kind: int = DEFAULT_MAX_ENTRIES):
        self.max_entries_per_kind = max_entries_per_kind
        self._entries: Dict[str, OrderedDict] = {}
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}

    def get(self, kind: str, key, build: Callable[[], Any]):
        """Fetch the artifact for ``(kind, key)``, building on a miss.

        The returned object is shared between all callers with the same
        key — treat it as immutable (arrays come back read-only).
        """
        digest = content_key(key)
        table = self._entries.setdefault(kind, OrderedDict())
        if digest in table:
            self._hits[kind] = self._hits.get(kind, 0) + 1
            return table[digest]
        self._misses[kind] = self._misses.get(kind, 0) + 1
        value = _freeze(build())
        table[digest] = value
        while len(table) > self.max_entries_per_kind:
            table.popitem(last=False)
        return value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind ``{"hits": n, "misses": n}`` counters."""
        kinds = set(self._hits) | set(self._misses)
        return {
            kind: {
                "hits": self._hits.get(kind, 0),
                "misses": self._misses.get(kind, 0),
            }
            for kind in sorted(kinds)
        }

    def totals(self) -> Tuple[int, int]:
        """Aggregate ``(hits, misses)`` across every kind."""
        return sum(self._hits.values()), sum(self._misses.values())

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Copy of the counters, for :meth:`delta_since`."""
        return self.stats()

    def delta_since(
        self, snapshot: Dict[str, Dict[str, int]]
    ) -> Dict[str, Dict[str, int]]:
        """Counter increase since a :meth:`snapshot` (kinds with activity)."""
        out: Dict[str, Dict[str, int]] = {}
        for kind, now in self.stats().items():
            then = snapshot.get(kind, {"hits": 0, "misses": 0})
            hits = now["hits"] - then["hits"]
            misses = now["misses"] - then["misses"]
            if hits or misses:
                out[kind] = {"hits": hits, "misses": misses}
        return out

    def entry_count(self, kind: str | None = None) -> int:
        if kind is not None:
            return len(self._entries.get(kind, ()))
        return sum(len(t) for t in self._entries.values())

    def reset_stats(self) -> None:
        self._hits.clear()
        self._misses.clear()

    def clear(self) -> None:
        """Drop every entry and every counter."""
        self._entries.clear()
        self.reset_stats()

    def __repr__(self) -> str:
        hits, misses = self.totals()
        return (
            f"ArtifactCache(entries={self.entry_count()}, "
            f"hits={hits}, misses={misses})"
        )


def merge_stats(
    *stat_dicts: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Sum per-kind counters from several caches (fleet merge).

    ``hits``/``misses`` are always present in the result; any other
    integer counter a producer reports for a kind is summed under the
    same kind rather than tracked in a parallel structure.
    """
    out: Dict[str, Dict[str, int]] = {}
    for stats in stat_dicts:
        for kind, c in stats.items():
            slot = out.setdefault(kind, {"hits": 0, "misses": 0})
            for counter, n in c.items():
                slot[counter] = slot.get(counter, 0) + n
    return {
        kind: {c: slot[c] for c in sorted(slot)}
        for kind, slot in sorted(out.items())
    }


#: the process-global cache every build path consults
ARTIFACT_CACHE = ArtifactCache()
