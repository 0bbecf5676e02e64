"""The fleet runner: crash-isolated parallel execution of run sweeps.

:func:`run_many` executes a list of independent :class:`RunSpec` tasks
and returns their results in *input order*, so everything downstream —
campaign matrices, soak reports, benchmark tables — merges
order-independently: the report bytes are identical for any ``jobs``
value.  The contract:

* ``jobs=1`` runs every task serially in the calling process, exactly
  like the pre-fleet code path (no subprocess, no pickling),
* ``jobs>1`` fans tasks out to ``jobs`` persistent worker processes;
  each worker keeps its process-global
  :data:`~repro.exec.cache.ARTIFACT_CACHE` warm across the tasks it
  executes,
* a task that raises is marked failed (``ok=False``) instead of
  aborting the sweep,
* a *worker* that dies mid-task (crash, ``os._exit``, OOM kill) is
  detected, the task is retried on a fresh worker up to
  ``crash_retries`` times, and only then marked failed — one sick run
  never sinks the sweep,
* per-run randomness must be derived deterministically from the run's
  identity (see :func:`derive_seed`), never from global state, so a
  task computes the same result in any process.

Task functions and their kwargs must be picklable (module-level
functions of plain-data arguments).  ``fault_injection={key: "crash"}``
makes the dispatched worker die *once* before executing that task — the
fleet-level transient used by the determinism tests, in the same spirit
as the simulator's transient catalogue.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from .cache import ARTIFACT_CACHE, _canonical, merge_stats

__all__ = [
    "FleetError",
    "RunSpec",
    "RunOutcome",
    "FleetReport",
    "run_many",
    "derive_seed",
]

#: exit code used by the fault-injection crash (visible in ps/strace)
CRASH_EXIT_CODE = 86


class FleetError(RuntimeError):
    """Invalid fleet configuration (duplicate keys, bad jobs value)."""


def derive_seed(*parts) -> int:
    """Deterministic 63-bit seed from a run's identity.

    Hash-stable across processes and Python versions (unlike ``hash``),
    so a worker derives the same per-run seed the serial path would::

        rng = random.Random(derive_seed(campaign_seed, method, bug_key))
    """
    digest = hashlib.sha256(_canonical(tuple(parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


@dataclass(frozen=True)
class RunSpec:
    """One independent unit of sweep work.

    ``fn(**kwargs)`` must be a module-level callable of picklable
    arguments; ``key`` names the run in outcomes and reports and must be
    unique within the sweep.
    """

    key: str
    fn: Callable
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RunOutcome:
    """What happened to one :class:`RunSpec`."""

    key: str
    index: int
    ok: bool
    value: Any = None
    error: str = ""
    elapsed_s: float = 0.0
    #: total executions attempted (1 + crash retries)
    attempts: int = 1
    #: worker incarnation that produced the result (-1 = serial/in-process)
    worker: int = -1


@dataclass
class FleetReport:
    """Merged result of a sweep: outcomes in input order plus stats."""

    jobs: int
    outcomes: List[RunOutcome]
    worker_crashes: int = 0
    #: per-kind artifact-cache hit/miss counters accumulated across the
    #: calling process and every worker that reported back
    cache: Dict[str, Dict[str, int]] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def failures(self) -> List[RunOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def value_of(self, key: str) -> Any:
        for o in self.outcomes:
            if o.key == key:
                return o.value
        raise KeyError(key)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(conn) -> None:
    """Worker loop: receive (index, fn, kwargs, crash), send results.

    The worker's process-global artifact cache persists across tasks
    (warm cache); its counters are zeroed at startup so the cumulative
    stats it reports cover exactly its own lifetime.
    """
    ARTIFACT_CACHE.reset_stats()
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        if msg is None:
            break
        index, fn, kwargs, crash = msg
        if crash:
            os._exit(CRASH_EXIT_CODE)
        t0 = perf_counter()
        try:
            value, ok, error = fn(**(kwargs or {})), True, ""
        except Exception as exc:
            value, ok, error = None, False, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        stats = ARTIFACT_CACHE.stats()
        try:
            conn.send((index, ok, value, error, elapsed, stats))
        except Exception as exc:
            conn.send(
                (
                    index,
                    False,
                    None,
                    f"result not picklable: {type(exc).__name__}: {exc}",
                    elapsed,
                    stats,
                )
            )
    conn.close()


# ----------------------------------------------------------------------
# Dispatcher side
# ----------------------------------------------------------------------
def _mp_context():
    """Fork where available (fast, inherits warm caches), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class _Worker:
    """Dispatcher-side handle on one worker incarnation."""

    _next_id = 0

    def __init__(self, ctx):
        self.id = _Worker._next_id
        _Worker._next_id += 1
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-fleet-{self.id}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.current: Optional[int] = None
        self.stats: Dict[str, Dict[str, int]] = {}

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass

    def reap(self, timeout: float = 5.0) -> None:
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(1.0)
        try:
            self.conn.close()
        except OSError:
            pass


def _run_serial(specs: Sequence[RunSpec]) -> List[RunOutcome]:
    outcomes = []
    for index, spec in enumerate(specs):
        t0 = perf_counter()
        try:
            value, ok, error = spec.fn(**(spec.kwargs or {})), True, ""
        except Exception as exc:
            value, ok, error = None, False, f"{type(exc).__name__}: {exc}"
        outcomes.append(
            RunOutcome(
                key=spec.key,
                index=index,
                ok=ok,
                value=value,
                error=error,
                elapsed_s=perf_counter() - t0,
            )
        )
    return outcomes


def run_many(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    crash_retries: int = 1,
    fault_injection: Optional[Dict[str, str]] = None,
) -> FleetReport:
    """Execute every spec; return outcomes in input order.

    ``fault_injection`` maps spec keys to ``"crash"``: the first worker
    dispatched that task dies before executing it (testing seam for the
    crash-isolation machinery; ignored when ``jobs=1``).
    """
    specs = list(specs)
    keys = [s.key for s in specs]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise FleetError(f"duplicate run keys: {', '.join(dupes)}")
    if jobs < 1:
        raise FleetError(f"jobs must be >= 1, got {jobs}")
    if fault_injection:
        unknown = sorted(set(fault_injection) - set(keys))
        if unknown:
            raise FleetError(f"fault injection for unknown keys: {unknown}")

    t0 = perf_counter()
    local_snap = ARTIFACT_CACHE.snapshot()

    if jobs == 1 or len(specs) <= 1:
        outcomes = _run_serial(specs)
        return FleetReport(
            jobs=1,
            outcomes=outcomes,
            cache=merge_stats(ARTIFACT_CACHE.delta_since(local_snap)),
            elapsed_s=perf_counter() - t0,
        )

    ctx = _mp_context()
    n = len(specs)
    outcomes: List[Optional[RunOutcome]] = [None] * n
    crashes_of = [0] * n
    pending = deque(range(n))
    inject_once = dict(fault_injection or {})
    workers: List[_Worker] = []
    retired: List[_Worker] = []
    worker_crashes = 0
    dead_stats: List[Dict[str, Dict[str, int]]] = []

    def dispatch(worker: _Worker) -> None:
        if not pending:
            worker.current = None
            worker.shutdown()
            workers.remove(worker)
            retired.append(worker)
            return
        index = pending.popleft()
        spec = specs[index]
        crash = inject_once.pop(spec.key, None) == "crash"
        worker.current = index
        worker.conn.send((index, spec.fn, spec.kwargs, crash))

    def handle_crash(worker: _Worker) -> None:
        nonlocal worker_crashes
        worker_crashes += 1
        workers.remove(worker)
        worker.reap()
        index = worker.current
        if index is not None:
            crashes_of[index] += 1
            if crashes_of[index] <= crash_retries:
                pending.appendleft(index)
                replacement = _Worker(ctx)
                workers.append(replacement)
                dispatch(replacement)
            else:
                spec = specs[index]
                outcomes[index] = RunOutcome(
                    key=spec.key,
                    index=index,
                    ok=False,
                    error=(
                        f"worker died {crashes_of[index]} time(s) running "
                        f"this task"
                    ),
                    attempts=crashes_of[index],
                    worker=worker.id,
                )

    try:
        for _ in range(min(jobs, n)):
            worker = _Worker(ctx)
            workers.append(worker)
            dispatch(worker)

        while any(o is None for o in outcomes):
            if not workers:
                if not pending:
                    raise FleetError(
                        "fleet stalled: tasks incomplete but no pending "
                        "work and no live workers"
                    )
                worker = _Worker(ctx)
                workers.append(worker)
                dispatch(worker)
                continue
            ready = _conn_wait([w.conn for w in workers], timeout=1.0)
            if not ready:
                # liveness sweep: catch a worker whose pipe somehow
                # outlived its process
                for worker in list(workers):
                    if not worker.proc.is_alive():
                        handle_crash(worker)
                continue
            by_conn = {w.conn: w for w in workers}
            for conn in ready:
                worker = by_conn.get(conn)
                if worker is None or worker not in workers:
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    handle_crash(worker)
                    continue
                index, ok, value, error, elapsed, stats = msg
                worker.stats = stats
                spec = specs[index]
                outcomes[index] = RunOutcome(
                    key=spec.key,
                    index=index,
                    ok=ok,
                    value=value,
                    error=error,
                    elapsed_s=elapsed,
                    attempts=crashes_of[index] + 1,
                    worker=worker.id,
                )
                dispatch(worker)
    finally:
        for worker in list(workers):
            worker.shutdown()
        for worker in workers + retired:
            if worker.stats:
                dead_stats.append(worker.stats)
            worker.reap()

    cache = merge_stats(ARTIFACT_CACHE.delta_since(local_snap), *dead_stats)
    return FleetReport(
        jobs=jobs,
        outcomes=list(outcomes),
        worker_crashes=worker_crashes,
        cache=cache,
        elapsed_s=perf_counter() - t0,
    )
