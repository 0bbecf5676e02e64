"""Compiled execution — the kernel's describe/execute seam.

Elaboration produces a module hierarchy, signals, processes and clocks
(the *description*).  By default the simulator *executes* it with its
own event-driven interpreter (the timestep loop
:meth:`Simulator._run_loop` and the delta loop
:meth:`Simulator._step_deltas`), the canonical semantics.  With
``backend="codegen"`` it delegates to :class:`CodegenBackend` instead: a
per-design scheduler driver generated and compiled once at first run
(see :mod:`repro.kernel.codegen.emitter`), with clock edges, timers and
2-state signal commits executed as straight-line Python.

The codegen driver *bails out* to the interpreter for anything it
cannot prove cheap and exact: X/Z values on a committing signal,
monitors, ``First``/multi-waiter wakeups, simultaneous timed events,
unknown trigger types — and falls back entirely when a VCD writer or
tracer is attached (those need the interpreter's per-commit hooks).
Every bail settles through the interpreter's one delta loop, and a
fallback hands the rest of the run to its one timestep loop.
Stats contract: ``resumes``, ``value_changes``, per-owner maps and
per-signal counters are bit-exact against the interpreter (they feed
byte-compared reports); ``deltas``/``timesteps`` may differ slightly at
bail-out boundaries (they feed no report).
"""

from __future__ import annotations

import heapq
from typing import Optional

from ..events import FallingEdge, RisingEdge

__all__ = [
    "CodegenBackend",
    "record_codegen_event",
]

#: driver return codes
_BAIL = 0  # let the interpreter settle pending work / take one timestep
_DONE = 1  # reached until/deadline, quiescence, finish() or the event
_FALLBACK = 2  # VCD/tracer attached: whole run goes to the interpreter

#: cap on the per-backend event log (counters are unbounded)
_EVENT_LOG_LIMIT = 64


def record_codegen_event(sim, kind: str, reason: str) -> None:
    """Attribute a compiled-driver bail to its cause.

    ``kind`` is ``"bail"``: the driver returned control to the
    interpreter, for ``reason`` (``clock-simultaneous``,
    ``timer-simultaneous``, ``vcd-or-tracer``, ...).  Counters
    accumulate per ``(kind, reason)`` on the backend; the first few
    events are kept with timestamps for attribution, and a ``codegen``
    trace-category instant is emitted when a tracer is attached.
    """
    be = sim._backend
    counts = getattr(be, "event_counts", None)
    if counts is not None:
        key = (kind, reason)
        counts[key] = counts.get(key, 0) + 1
        log = be.events
        if len(log) < _EVENT_LOG_LIMIT:
            log.append((sim.time, kind, reason))
    tr = sim.tracer
    if tr is not None:
        tr.instant("codegen", f"{kind}: {reason}")


def _unprime_edge(et) -> None:
    """Undo an Edge trigger's priming (waiter list + signal slot list)."""
    et._waiters.clear()
    cls = et.__class__
    sig = et.signal
    if cls is RisingEdge:
        lst = sig._w_rise
    elif cls is FallingEdge:
        lst = sig._w_fall
    else:
        lst = sig._w_any
    try:
        lst.remove(et)
    except ValueError:
        pass


#: :attr:`Simulator.delta` while the compiled driver runs.  The driver
#: inlines only timesteps that hold a single timed event, so none of
#: them commits a process's write in the same delta as a clock edge.
#: Counting on from here, a delta loop the driver hands such a step to
#: reports indices above 2, which says exactly that.
_PAST_FIRST_DELTA = 2


def _interp_step(sim, until: Optional[int]) -> bool:
    """Run exactly one timed step through the interpreter.

    The generic escape hatch for events the compiled driver does not
    specialize.  Mirrors one iteration of the interpreter's outer loop;
    returns False when there is nothing left to run before ``until``.
    """
    timed = sim._timed
    if sim._finished or not timed:
        return False
    when = timed[0][0]
    if until is not None and when > until:
        sim.time = until
        return False
    if when != sim.time:
        sim.time = when
        sim.delta = 0
    sim.stats.timesteps += 1
    heappop = heapq.heappop
    while timed and timed[0][0] == when:
        heappop(timed)[2]._fire(sim)
    sim._step_deltas()
    return True


class CodegenBackend:
    """Compiled-driver execution with automatic interpreter bail-out.

    The simulator delegates :meth:`run` / :meth:`run_until_event` here;
    :meth:`invalidate` is called whenever the description changes
    (e.g. ``add_module`` after a run) so the driver is rebuilt.
    """

    def __init__(self, sim):
        self._sim = sim
        self._driver = None
        #: generated driver source, kept for introspection and tests
        self.driver_source: Optional[str] = None
        #: (kind, reason) -> count of driver bails
        self.event_counts: dict = {}
        #: first few (time, kind, reason) events, for attribution
        self.events: list = []

    def invalidate(self) -> None:
        """The design changed; drop the compiled driver."""
        self._driver = None
        self.driver_source = None

    def _compiled(self):
        drv = self._driver
        if drv is None:
            from .emitter import compile_driver

            drv, src = compile_driver(self._sim)
            self._driver = drv
            self.driver_source = src
        return drv

    def run(self, until: Optional[int]) -> int:
        sim = self._sim
        drv = self._compiled()
        sim._step_deltas()
        sim.stats.timesteps += 1
        while True:
            sim.delta = _PAST_FIRST_DELTA
            status = drv(sim, until, None, 0)
            if sim._errors:
                # check before honouring _DONE: a process error followed
                # by quiescence must still raise, like the interpreter
                raise sim._errors.pop(0)
            if status == _DONE:
                break
            if status == _FALLBACK:
                record_codegen_event(sim, "bail", "vcd-or-tracer")
                sim._run_loop(until)
                break
            if sim._ready or sim._updates or sim._delta_triggers:
                sim._step_deltas()
                continue
            if not _interp_step(sim, until):
                break
        if until is not None and sim.time < until and not sim._finished:
            sim.time = until
        return sim.time

    def run_until_event(self, event, timeout: Optional[int]) -> bool:
        sim = self._sim
        drv = self._compiled()
        start = event.fired_count
        deadline = None if timeout is None else sim.time + timeout
        sim._step_deltas()
        sim.stats.timesteps += 1
        while True:
            if event.fired_count > start:
                return True
            sim.delta = _PAST_FIRST_DELTA
            status = drv(sim, deadline, event, start)
            if sim._errors:
                # same ordering as run(): errors outrank quiescence
                raise sim._errors.pop(0)
            if status == _DONE:
                return event.fired_count > start
            if status == _FALLBACK:
                record_codegen_event(sim, "bail", "vcd-or-tracer")
                sim._run_loop(deadline, event)
                return event.fired_count > start
            if sim._ready or sim._updates or sim._delta_triggers:
                sim._step_deltas()
                continue
            if not _interp_step(sim, deadline):
                return event.fired_count > start
