"""The discrete-event simulation scheduler.

This is the kernel's ModelSim substitute: a delta-cycle, three-valued
(0/1/X), event-driven scheduler.  One *time step* consists of one or
more *delta cycles*; each delta cycle has an **evaluation phase** (runnable
processes execute and schedule signal updates non-blockingly) followed
by an **update phase** (scheduled updates are committed, edge triggers
fire, and newly sensitive processes become runnable in the next delta).
When a time step stabilizes, simulated time advances to the earliest
pending timed event.

There is one timestep loop (:meth:`Simulator._run_loop`) and one delta
loop (:meth:`Simulator._step_deltas`).  :meth:`~Simulator.run`,
:meth:`~Simulator.run_until_event` and profile mode all run on them,
and the codegen backend settles every bail through the same delta loop,
so every entry point executes one schedule.  Stretches of clock edges
that wake a few processes, such as a frame's engine rows or the
bitstream DMA, stay cheap: the timestep loop commits a timestep that
holds nothing but clock edges in one pass over the toggled clocks and,
if they woke anyone, settles it with the delta loop's phases inline.
Such a step that no process or VCD writer observes is *silent*: that
pass is all it costs.

Activity accounting
-------------------
The paper's Table II observes that wall-clock simulation cost tracks
*signal activity*, not simulated time (the Census engine simulates
slower than the Matching engine despite covering less simulated time).
To reproduce that measurement the scheduler counts, per owning module:
process resumptions and signal value changes; ``profile=True``
additionally samples wall-clock time around each process resumption so
the ReSim-artifact overhead (§V, 1.7%) can be attributed.  It does so
in the process itself (:meth:`Simulator.fork`), so every loop runs the
same code with or without it.
"""

from __future__ import annotations

import heapq
import time as _time
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Tuple

from .clock import _ClockEdge
from .events import Event, RisingEdge, Trigger, _FirstWaiter
from .process import Process, ProcessError
from .signal import Signal

if TYPE_CHECKING:
    from .codegen.backend import CodegenBackend

__all__ = ["Simulator", "SimulationError", "DeltaOverflowError", "SimStats"]


class SimulationError(RuntimeError):
    pass


class DeltaOverflowError(SimulationError):
    """Raised when a time step fails to stabilize (combinational loop)."""


def _timed_send(send: Callable, elapsed_ns: Dict[object, int], owner):
    """``send`` that adds the wall time of each call to ``elapsed_ns[owner]``."""
    clock = _time.perf_counter_ns

    def timed(value):
        t0 = clock()
        try:
            return send(value)
        finally:
            elapsed_ns[owner] += clock() - t0

    return timed


class SimStats:
    """Aggregate counters maintained by the scheduler."""

    __slots__ = (
        "resumes",
        "value_changes",
        "deltas",
        "timesteps",
        "silent_timesteps",
        "resumes_by_owner",
        "changes_by_owner",
        "elapsed_ns_by_owner",
    )

    def __init__(self) -> None:
        self.resumes = 0
        self.value_changes = 0
        self.deltas = 0
        self.timesteps = 0
        #: timesteps committed by the silent-edge path (see
        #: :meth:`Simulator._run_loop`): nothing but unobserved clock
        #: toggles, settled without a delta loop
        self.silent_timesteps = 0
        self.resumes_by_owner: Dict[object, int] = defaultdict(int)
        self.changes_by_owner: Dict[object, int] = defaultdict(int)
        self.elapsed_ns_by_owner: Dict[object, int] = defaultdict(int)

    @property
    def events(self) -> int:
        """Total kernel events — the deterministic proxy for elapsed time."""
        return self.resumes + self.value_changes


class Simulator:
    """Delta-cycle discrete-event simulator with activity accounting."""

    #: safety net against combinational loops (the delta loop reads it
    #: once, at construction, and the timestep loop once per run)
    MAX_DELTAS_PER_STEP = 10_000

    def __init__(self, profile: bool = False, backend: str = "interp"):
        if backend not in ("interp", "codegen"):
            raise ValueError(
                f"unknown execution backend {backend!r} "
                f"(expected 'interp' or 'codegen')"
            )
        self.time = 0  # picoseconds
        #: 1-based index of the delta cycle now being evaluated at
        #: ``time`` (0 before the first); it keeps counting across
        #: delta loops at one time and restarts when time advances.
        #: Steps the codegen driver inlines count from above 2 (see
        #: ``codegen.backend._PAST_FIRST_DELTA``).
        self.delta = 0
        #: fixed at construction (:meth:`fork` reads it)
        self.profile = profile
        self.backend_name = backend
        #: the compiled-execution backend, or None for the default
        #: interpreter (which runs inline, with no dispatch layer on the
        #: hot path)
        self._backend: Optional[CodegenBackend] = None
        if backend == "codegen":
            from .codegen.backend import CodegenBackend

            self._backend = CodegenBackend(self)
        self.stats = SimStats()
        self._seq = 0
        self._timed: List[Tuple[int, int, Trigger]] = []
        # The scheduler queues below are drained in place and never
        # rebound (nor is ``stats``), so the delta loop binds them once.
        self._ready: deque = deque()  # (process, fired trigger)
        self._updates: Dict[Signal, object] = {}
        self._delta_triggers: List[Trigger] = []
        self._fired_scratch: List[Trigger] = []  # reused by each delta
        self._processes: List[Process] = []
        self._errors: List[ProcessError] = []
        #: (time_ps, message) records from Module.warn() — the trace
        #: channel monitors/artifacts use for non-fatal conditions
        self.warnings: List[Tuple[int, str]] = []
        #: structured trace recorder (repro.analysis.tracing.Tracer) or
        #: None — the zero-overhead-when-off default.  Instrumentation
        #: sites guard with ``if sim.tracer is not None`` and never sit
        #: on the per-delta hot path.
        self.tracer = None
        self._vcd = None
        self._modules: List[object] = []
        #: the kernel's only delta loop and its update phase (see
        #: :meth:`_delta_loop`)
        self._step_deltas: Callable[[], None]
        self._commit: Callable[[int, object], int]
        self._step_deltas, self._commit = self._delta_loop()

    # ------------------------------------------------------------------
    # Elaboration
    # ------------------------------------------------------------------
    def add_module(self, module) -> None:
        """Register a module hierarchy: binds signals, starts processes."""
        self._modules.append(module)
        module._elaborate(self)
        if self._backend is not None:
            # the description changed: compiled execution artifacts
            # (the scheduler driver's clock constants) must be rebuilt
            self._backend.invalidate()

    def register_signal(self, signal: Signal) -> None:
        signal._bind(self)

    def warn(self, message: str) -> None:
        """Record a timestamped simulation warning (trace channel).

        With a tracer attached the warning routes through
        :meth:`~repro.analysis.tracing.Tracer.warning`, which appends
        the same backward-compatible ``(time_ps, message)`` tuple to
        :attr:`warnings` *and* records a trace instant from a single
        ``sim.time`` read, so the two records cannot disagree.
        """
        if self.tracer is not None:
            self.tracer.warning(message)
        else:
            self.warnings.append((self.time, message))

    def fork(self, gen: Generator, name: str = "proc", owner=None) -> Process:
        """Start a new process; it first runs in the next delta cycle.

        In profile mode a process with an owner is resumed through a
        wrapper that adds the wall time of each resume to
        ``stats.elapsed_ns_by_owner``.
        """
        proc = Process(gen, name=name, owner=owner)
        if self.profile and owner is not None:
            proc._send = _timed_send(
                proc._send, self.stats.elapsed_ns_by_owner, owner
            )
        self._processes.append(proc)
        self._ready.append((proc, None))
        return proc

    def attach_vcd(self, writer) -> None:
        self._vcd = writer
        writer._attach(self)

    # ------------------------------------------------------------------
    # Scheduler internals
    # ------------------------------------------------------------------
    def _schedule_delta_trigger(self, trigger: Trigger) -> None:
        self._delta_triggers.append(trigger)

    def _wake(self, waiter, trigger: Trigger) -> None:
        if isinstance(waiter, _FirstWaiter):
            first = waiter.first
            if first.winner is not None:
                return
            first.winner = waiter.trigger
            # Disarm losing sub-triggers so they do not accumulate on
            # signals when Firsts are used inside polling loops.
            for sub in first.triggers:
                if sub is waiter.trigger:
                    continue
                for w in list(sub._waiters):
                    if isinstance(w, _FirstWaiter) and w.first is first:
                        sub._unprime(w)
            procs = list(first._waiters)
            first._waiters.clear()
            for proc in procs:
                self._ready.append((proc, waiter.trigger))
            return
        self._ready.append((waiter, trigger))

    def _report_process_error(self, error: ProcessError) -> None:
        self._errors.append(error)

    def _delta_loop(
        self,
    ) -> Tuple[Callable[[], None], Callable[[int, object], int]]:
        """Build this simulator's delta loop, bound once to its queues.

        The first function returned, installed as :attr:`_step_deltas`,
        is the kernel's delta loop: every run entry point and each
        codegen-driver bail settle through it, except the timesteps that
        hold only clock edges, which :meth:`_run_loop` settles inline
        with the same phases.  It keeps :attr:`delta` current.  It runs
        delta cycles at the current time until quiescent.  Each delta resumes
        the ready processes (evaluation), then commits the scheduled
        updates and fires the triggers they and the pending delta
        triggers raise (update).  The update phase is the one definition
        of a commit: a signal changes iff the new value ``!=`` the
        stored one.  Every scheduled value already has the signal's
        width and is an ``int`` unless it carries X (:attr:`Signal.next`
        coerces it, and a clock edge writes ``0``/``1`` to its 1-bit
        output), so an ``int`` compare decides between defined values,
        case equality between vectors, and an ``int`` never equals a
        vector.  The scheduler queues are drained in place and never
        rebound, so they are bound here once; ``_vcd`` and ``time`` are
        read once per call.
        Counters accumulate in locals and are flushed on exit, including
        on an error.  The second, installed as :attr:`_commit`, is the
        update phase itself, which :meth:`_run_loop` shares.
        """
        ready = self._ready
        popleft = ready.popleft
        updates = self._updates
        dts = self._delta_triggers
        errors = self._errors
        fired: List[Trigger] = self._fired_scratch
        stats = self.stats
        resumes_by_owner = stats.resumes_by_owner
        changes_by_owner = stats.changes_by_owner
        max_deltas = self.MAX_DELTAS_PER_STEP

        def commit(time_now: int, vcd) -> int:
            """One update phase: commit the scheduled updates, and queue
            in ``fired`` the pending delta triggers and the edge
            triggers the changes raise.  Returns the value changes."""
            # capture-and-clear before firing: triggers scheduled while
            # firing land in dts again and run next delta
            if dts:
                fired.extend(dts)
                dts.clear()
            changes = 0
            if updates:
                if len(updates) == 1:
                    # common case: one signal changed
                    items = (updates.popitem(),)
                else:
                    items = list(updates.items())
                    updates.clear()
                for signal, new in items:
                    old = signal._value
                    if new == old:
                        continue
                    signal._value = new
                    changes += 1
                    owner = signal.owner
                    if owner is not None:
                        changes_by_owner[owner] += 1
                    if vcd is not None and signal._vcd_id is not None:
                        vcd._record(time_now, signal)
                    w = signal._w_any
                    if w:
                        fired.extend(w)
                    w = signal._w_rise
                    if w:
                        # X bits read 0 in a vector's ``value``, so its
                        # bit 0 is set iff the LSB is a defined 1
                        if new.__class__ is not int:
                            new = new.value
                        if old.__class__ is not int:
                            old = old.value
                        if new & 1 and not old & 1:
                            fired.extend(w)
            return changes

        def step_deltas() -> None:
            vcd = self._vcd
            time_now = self.time
            base = self.delta
            deltas = 0
            resumes = 0
            changes = 0
            try:
                while ready or updates or dts:
                    deltas += 1
                    if deltas > max_deltas:
                        raise DeltaOverflowError(
                            f"time step at t={time_now}ps did not stabilize "
                            f"after {max_deltas} delta cycles "
                            f"(combinational loop?)"
                        )
                    self.delta = base + deltas
                    # ---- evaluation phase ----
                    # snapshot drain: processes woken during the drain land
                    # beyond the snapshot length and run next delta
                    for _ in range(len(ready)):
                        proc, sent = popleft()
                        if proc.finished:
                            continue
                        resumes += 1
                        owner = proc.owner
                        if owner is not None:
                            resumes_by_owner[owner] += 1
                        try:
                            yielded = proc._send(sent)
                        except StopIteration as stop:
                            proc.finished = True
                            proc.result = stop.value
                        except Exception as exc:  # noqa: BLE001
                            proc.finished = True
                            errors.append(ProcessError(proc, exc))
                        else:
                            if isinstance(yielded, Trigger):
                                yielded._prime(self, proc)
                            else:
                                proc._handle_nontrigger_yield(self, yielded)
                    # ---- update phase ----
                    if dts or updates:
                        changes += commit(time_now, vcd)
                    if fired:
                        try:
                            for trig in fired:
                                trig._fire(self)
                        finally:
                            fired.clear()
                    if errors:
                        raise errors.pop(0)
            finally:
                stats.resumes += resumes
                stats.value_changes += changes
                stats.deltas += deltas

        return step_deltas, commit

    def _run_loop(
        self, until: Optional[int], event: Optional[Event] = None
    ) -> None:
        """Advance time step by step until ``until``, quiescence or ``event``.

        The kernel's only timestep loop, behind :meth:`run`,
        :meth:`run_until_event` and the codegen backend's fallback.
        Each step pops every timed event due at the earliest pending
        time.  Clock edges, most of the heap traffic, are fired inline
        (the body of ``_ClockEdge._fire``): each clock keeps one edge in
        the heap, and firing it re-posts the clock's other edge with one
        ``heapreplace``.

        An *edges-only* step holds nothing but clock edges, with no
        process ready and no delta trigger pending.  Its first delta is
        its update phase alone, which the loop runs in one pass over the
        toggled clock signals: each commits, is recorded in the VCD, and
        wakes its any-edge waiters, then, on a rise, its rising-edge
        waiters (a rising edge with one process waiting is inlined).  The
        step is *silent* when no toggled signal has an any-edge waiter, a
        rising-edge waiter on a rise, a VCD id while a VCD writer is
        attached, or an X: it ends there, counted in
        ``silent_timesteps``.  Otherwise the loop settles the step's
        other deltas itself, with the delta loop's evaluation phase and
        its update phase (:attr:`_commit`), and the delta loop's delta
        index, counters, :class:`DeltaOverflowError` and process errors.
        Every other step settles in :meth:`_step_deltas`.  The settle is
        inline, not a :meth:`_step_deltas` call, because the call is what
        a long stretch of clock-driven steps would pay most for (see
        ``docs/performance.md``).

        With ``event`` the loop stops as soon as its ``fired_count``
        rises, before it pops the next step, so a zero-delay timed entry
        posted in the step that set it runs in the next run; without it,
        a run that goes quiescent before ``until`` still advances time to
        ``until``.
        """
        timed = self._timed
        updates = self._updates
        ready = self._ready
        popleft = ready.popleft
        wake = ready.append
        dts = self._delta_triggers
        errors = self._errors
        fired = self._fired_scratch
        stats = self.stats
        resumes_by_owner = stats.resumes_by_owner
        changes_by_owner = stats.changes_by_owner
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        step_deltas = self._step_deltas
        commit = self._commit
        max_deltas = self.MAX_DELTAS_PER_STEP
        clock_edge = _ClockEdge
        start = 0 if event is None else event.fired_count
        timesteps = 1
        silent = resumes = changes = deltas = 0
        try:
            step_deltas()
            while timed:
                if event is not None and event.fired_count > start:
                    return
                when = timed[0][0]
                if until is not None and when > until:
                    if until != self.time:
                        self.time = until
                        self.delta = 0
                    return
                if when != self.time:
                    self.time = when
                    self.delta = 0
                timesteps += 1
                edges_only = True
                while timed and timed[0][0] == when:
                    trig = timed[0][2]
                    if trig.__class__ is clock_edge:
                        # re-post the clock's other edge in the popped slot
                        self._seq += 1
                        heapreplace(
                            timed, (when + trig.delay, self._seq, trig.next)
                        )
                        updates[trig.clock.out] = trig.value
                    else:
                        heappop(timed)
                        edges_only = False
                        trig._fire(self)
                if not edges_only or ready or dts:
                    step_deltas()
                    continue
                # ---- an edges-only step's first delta: update phase ----
                vcd = self._vcd
                quiet = True
                for sig, new in updates.items():
                    old = sig._value
                    if new == old:
                        if (
                            sig._w_any
                            or (new and sig._w_rise)
                            or (vcd is not None and sig._vcd_id is not None)
                        ):
                            quiet = False
                        continue
                    sig._value = new
                    changes += 1
                    owner = sig.owner
                    if owner is not None:
                        changes_by_owner[owner] += 1
                    if vcd is not None and sig._vcd_id is not None:
                        quiet = False
                        vcd._record(when, sig)
                    if old.__class__ is not int:
                        quiet = False
                        old = old.value
                    w = sig._w_any
                    if w:
                        quiet = False
                        for trig in tuple(w):
                            trig._fire(self)
                    if new:
                        w = sig._w_rise
                        if w:
                            quiet = False
                            if not old & 1:
                                trig = w.pop()
                                waiters = trig._waiters
                                if (
                                    not w
                                    and len(waiters) == 1
                                    and waiters[0].__class__ is Process
                                ):
                                    # RisingEdge._fire, inlined
                                    wake((waiters.pop(), trig))
                                else:
                                    w.append(trig)
                                    for trig in tuple(w):
                                        trig._fire(self)
                updates.clear()
                base = self.delta
                delta = self.delta = base + 1
                deltas += 1
                if quiet:
                    silent += 1
                    continue
                # ---- the step's other deltas, as the delta loop's ----
                limit = base + max_deltas
                while ready or updates or dts:
                    deltas += 1
                    if delta >= limit:
                        raise DeltaOverflowError(
                            f"time step at t={when}ps did not stabilize "
                            f"after {max_deltas} delta cycles "
                            f"(combinational loop?)"
                        )
                    delta = self.delta = delta + 1
                    for _ in range(len(ready)):
                        proc, sent = popleft()
                        if proc.finished:
                            continue
                        resumes += 1
                        owner = proc.owner
                        if owner is not None:
                            resumes_by_owner[owner] += 1
                        try:
                            yielded = proc._send(sent)
                        except StopIteration as stop:
                            proc.finished = True
                            proc.result = stop.value
                        except Exception as exc:  # noqa: BLE001
                            proc.finished = True
                            errors.append(ProcessError(proc, exc))
                        else:
                            if yielded.__class__ is RisingEdge:
                                # RisingEdge._prime, inlined
                                yielded._waiters.append(proc)
                                yielded.signal._w_rise.append(yielded)
                            elif isinstance(yielded, Trigger):
                                yielded._prime(self, proc)
                            else:
                                proc._handle_nontrigger_yield(self, yielded)
                    if dts or updates:
                        changes += commit(when, vcd)
                    if fired:
                        try:
                            for trig in fired:
                                trig._fire(self)
                        finally:
                            fired.clear()
                    if errors:
                        raise errors.pop(0)
        finally:
            stats.resumes += resumes
            stats.value_changes += changes
            stats.deltas += deltas
            stats.timesteps += timesteps
            stats.silent_timesteps += silent
        if event is None and until is not None and self.time < until:
            self.time = until
            self.delta = 0

    def _interpret(
        self, until: Optional[int], event: Optional[Event] = None
    ) -> None:
        """:meth:`_run_loop` inside a ``kernel`` trace span, if enabled."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled_for("kernel"):
            self._run_loop(until, event)
            return
        if event is None:
            span = tracer.begin("kernel", "run")
        else:
            span = tracer.begin("kernel", "run_until_event", event=event.name)
        try:
            self._run_loop(until, event)
        finally:
            span.end()
            tracer.sample_kernel()

    def _compiled_run_ok(self) -> bool:
        """True when the codegen backend may take this run."""
        return (
            self._backend is not None
            and not self.profile
            and self.tracer is None
            and self._vcd is None
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run until ``until`` picoseconds (inclusive) or quiescence.

        Returns the simulation time at which the run stopped.
        """
        if until is not None and until < self.time:
            raise SimulationError(
                f"cannot run until t={until}ps: simulation is already at "
                f"t={self.time}ps"
            )
        if self._compiled_run_ok():
            self._backend.run(until)
        else:
            self._interpret(until)
        return self.time

    def run_for(self, duration: int) -> int:
        """Advance simulated time by ``duration`` picoseconds."""
        return self.run(until=self.time + duration)

    def run_until_event(self, event: Event, timeout: Optional[int] = None) -> bool:
        """Run until ``event`` fires; returns False on timeout/quiescence.

        On quiescence time stays where the last event left it; it does
        not advance to the deadline.
        """
        if timeout is not None and timeout < 0:
            raise SimulationError(
                f"cannot run for a negative timeout of {timeout}ps"
            )
        start = event.fired_count
        deadline = None if timeout is None else self.time + timeout
        if self._compiled_run_ok():
            self._backend.run(deadline, event)
        else:
            self._interpret(deadline, event)
        return event.fired_count > start

    def close(self) -> None:
        if self._vcd is not None:
            self._vcd.close()
            self._vcd = None

    def __repr__(self) -> str:
        return (
            f"Simulator(t={self.time}ps, {len(self._processes)} processes, "
            f"{self.stats.events} events)"
        )
