"""Compiled execution — the kernel's describe/execute seam.

Elaboration produces a module hierarchy, signals, processes and clocks
(the *description*).  By default the simulator *executes* it with its
own event-driven interpreter (the timestep loop
:meth:`Simulator._run_loop` and the delta loop
:meth:`Simulator._step_deltas`), the canonical semantics.  With
``backend="codegen"`` it delegates to :class:`CodegenBackend` instead: a
per-design scheduler driver generated and compiled once at first run
(see :mod:`repro.kernel.codegen.emitter`), which executes a timestep
holding a single clock edge or timer, and the 2-state signal commits
it causes, as straight-line Python.  :meth:`CodegenBackend.run` is the
one loop around it, behind both :meth:`Simulator.run` and
:meth:`Simulator.run_until_event`.

The codegen driver *bails out* to the interpreter for anything it
cannot prove cheap and exact: simultaneous timed events (on the paper
SoC every ``cfg_clk`` edge lands on a ``bus_clk`` edge), X/Z values on
a committing signal, monitors, ``First``/multi-waiter wakeups, unknown
trigger types — and falls back entirely when a VCD writer or tracer is
attached (those need the interpreter's per-commit hooks).  Every bail
is counted under ``("bail", reason)`` in
:attr:`CodegenBackend.event_counts` and settles through the
interpreter's one delta loop; a fallback hands the rest of the run to
its one timestep loop.
Stats contract: ``resumes``, ``value_changes``, per-owner maps and
per-signal ``change_count`` are bit-exact against the interpreter (they feed
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


def record_codegen_event(sim, reason: str) -> None:
    """Count a compiled-driver bail under ``("bail", reason)``.

    The driver returned control to the interpreter, for ``reason``
    (``clock-simultaneous``, ``timer-simultaneous``, ``vcd-or-tracer``,
    ...).  A ``codegen`` trace-category instant is emitted when a
    tracer is attached.
    """
    counts = sim._backend.event_counts
    key = ("bail", reason)
    counts[key] = counts.get(key, 0) + 1
    tr = sim.tracer
    if tr is not None:
        tr.instant("codegen", f"bail: {reason}")


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
        if until != sim.time:
            sim.time = until
            sim.delta = 0
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

    The simulator delegates :meth:`Simulator.run` and
    :meth:`Simulator.run_until_event` to :meth:`run`;
    :meth:`invalidate` is called whenever the description changes
    (e.g. ``add_module`` after a run) so the driver is rebuilt.
    """

    def __init__(self, sim):
        self._sim = sim
        self._driver = None
        #: generated driver source, kept for introspection and tests
        self.driver_source: Optional[str] = None
        #: ("bail", reason) -> count of driver bails
        self.event_counts: dict = {}

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

    def run(self, until: Optional[int], event=None) -> None:
        """Advance time until ``until``, quiescence or ``event``.

        The contract of :meth:`Simulator._run_loop`: with ``event`` the
        run stops as soon as its ``fired_count`` rises; without it, a
        run that goes quiescent before ``until`` still advances time to
        ``until``.
        """
        sim = self._sim
        drv = self._compiled()
        start = 0 if event is None else event.fired_count
        sim._step_deltas()
        sim.stats.timesteps += 1
        while event is None or event.fired_count == start:
            sim.delta = _PAST_FIRST_DELTA
            status = drv(sim, until, event, start)
            if sim._errors:
                # check before honouring _DONE: a process error followed
                # by quiescence must still raise, like the interpreter
                raise sim._errors.pop(0)
            if status == _DONE:
                break
            if status == _FALLBACK:
                record_codegen_event(sim, "vcd-or-tracer")
                sim._run_loop(until, event)
                return
            if sim._ready or sim._updates or sim._delta_triggers:
                sim._step_deltas()
                continue
            if not _interp_step(sim, until):
                break
        if (
            event is None
            and until is not None
            and sim.time < until
            and not sim._finished
        ):
            sim.time = until
            sim.delta = 0
