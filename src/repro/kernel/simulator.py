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
so every entry point executes one schedule.  Idle hardware costs next
to nothing: a timestep holding nothing but clock edges that no process
or VCD writer observes is *silent*, and the timestep loop commits its
toggles inline, with the counters one delta of the delta
loop would record, instead of entering the delta loop at all.  A
stretch of time in which only clock edges are queued can run in one
loop of its own (:meth:`Simulator._run_clocked`, which IcapCTRL's
bitstream DMA opens): it walks the timed queue's clock edges in heap
order and resumes whoever they wake, in the same order and with the
same counters as the two loops.

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
    #: once, at construction)
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
        #: ``(until, event, event.fired_count at start)`` of the run in
        #: progress, set once per :meth:`_run_loop` call so a timed entry
        #: that advances time itself (see :meth:`_run_clocked`) stops
        #: where the run would
        self._run_bounds: Tuple[Optional[int], Optional[Event], int] = (
            None,
            None,
            0,
        )
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
        is the kernel's only delta loop: every run entry point and each
        codegen-driver bail settle through it (a silent step,
        which resumes nothing, is committed by :meth:`_run_loop`
        itself).  It keeps :attr:`delta` current.  It runs delta
        cycles at the current time until quiescent.  Each delta resumes
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
        update phase itself, which :meth:`_run_clocked` shares.
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
                        proc._waiting_on = None
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
                                proc._waiting_on = yielded
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
        Each step pops every timed event due at the earliest
        pending time, then settles it with :meth:`_step_deltas`.  Clock
        edges, most of the heap traffic, are fired inline (the body of
        ``_ClockEdge._fire``): each clock keeps one edge in the heap, and
        firing it re-posts the clock's other edge with one ``heapreplace``.

        A *silent* step skips the delta loop.  It holds nothing but clock
        edges, with no process ready and no delta trigger pending, and no
        toggled clock signal has an any-edge waiter, a rising-edge waiter
        on a rise, or a VCD id while a VCD writer is attached.  Such a
        step is one delta that resumes nobody: its toggles are committed
        inline, with the same counter updates (``value_changes``,
        ``changes_by_owner``, one ``deltas``) that delta would make, and
        counted in ``silent_timesteps``.  Every edge still commits, so a
        read of a clock signal is always exact.  A clock signal holding X
        (an edge always writes ``0``/``1``) takes the delta loop.

        With ``event`` the loop stops as soon as its ``fired_count``
        rises; without it, a run that goes quiescent before ``until``
        still advances time to ``until``.
        """
        timed = self._timed
        updates = self._updates
        ready = self._ready
        dts = self._delta_triggers
        stats = self.stats
        changes_by_owner = stats.changes_by_owner
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        step_deltas = self._step_deltas
        clock_edge = _ClockEdge
        start = 0 if event is None else event.fired_count
        self._run_bounds = (until, event, start)
        timesteps = 1
        silent = 0
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
                if edges_only and not ready and not dts:
                    vcd = self._vcd
                    for sig, new in updates.items():
                        if (
                            sig._w_any
                            or (new and sig._w_rise)
                            or sig._value.__class__ is not int
                            or (vcd is not None and sig._vcd_id is not None)
                        ):
                            break
                    else:
                        # silent step: commit as one delta of step_deltas
                        for sig, new in updates.items():
                            if new != sig._value:
                                sig._value = new
                                stats.value_changes += 1
                                owner = sig.owner
                                if owner is not None:
                                    changes_by_owner[owner] += 1
                        updates.clear()
                        stats.deltas += 1
                        self.delta = 1
                        silent += 1
                        continue
                step_deltas()
        finally:
            stats.timesteps += timesteps
            stats.silent_timesteps += silent
        if event is None and until is not None and self.time < until:
            self.time = until
            self.delta = 0

    def _post_clocked(self, when: int, entry) -> bool:
        """Queue a timed ``entry`` whose ``_fire`` calls :meth:`_run_clocked`.

        Queues nothing, and returns False, where :meth:`_run_clocked`
        never runs: under a VCD writer (which records every change) and
        on the codegen backend (whose compiled driver owns the timed
        queue).
        """
        if self._vcd is not None or self._backend is not None:
            return False
        self._seq += 1
        heapq.heappush(self._timed, (when, self._seq, entry))
        return True

    def _run_clocked(self) -> bool:
        """Run the timesteps that hold only clock edges in one loop.

        Called from a timed entry's ``_fire`` (see :meth:`_post_clocked`)
        before the timestep it fires in has entered the delta loop.  It
        returns False, changing nothing, under a VCD writer, or if that
        timestep already has work queued or a timed entry that is not a
        clock edge is due in it.  Otherwise it does what :meth:`_run_loop`
        and the delta loop would, up to the first timed entry that is not
        a clock edge (or the run's ``until`` or event): it pops the clock
        edges from the timed queue in heap order, commits each as the
        update phase would, and settles each timestep with the delta
        loop's evaluation and update phases (:attr:`_commit`), charging
        :attr:`stats` the same counters, silent timesteps included.

        It holds the processes by their waits.  Whoever a clock's rise,
        an event or any other trigger wakes is resumed here, in the
        order the delta loop would resume it, through the triggers' own
        wait lists (a rising edge with one process waiting is inlined).
        A timed entry that a process posts bounds the loop anew.  One
        posted for the current time ends it: the timestep loop runs that
        entry in a timestep of its own, as it always does, except at the
        time the loop was entered, where it runs it in the pass that
        fired the entry (so the loop counts that timestep for it).  The
        one difference this leaves: a run whose event is set in that
        first timestep still runs such an entry before it returns.  A
        process error or a timestep that does not settle raises as in
        the delta loop.
        """
        if (
            self._vcd is not None
            or self._ready
            or self._updates
            or self._delta_triggers
            or not self._timed
        ):
            return False
        timed = self._timed
        until, stop_event, stop_count = self._run_bounds
        last = float("inf") if until is None else until + 1

        def bound() -> float:
            """When the first timed entry that is not a clock edge is due."""
            end = last
            for when, _, trig in timed:
                if when < end and trig.__class__ is not _ClockEdge:
                    end = when
            return end

        start = now = self.time
        end = bound()
        if end <= now:
            return False
        stats = self.stats
        ready = self._ready
        popleft = ready.popleft
        wake = ready.append
        updates = self._updates
        dts = self._delta_triggers
        errors = self._errors
        fired = self._fired_scratch
        commit = self._commit
        heapreplace = heapq.heapreplace
        max_deltas = self.MAX_DELTAS_PER_STEP
        # changes by clock signal and resumes by owner, added to the
        # counters on exit
        toggled: Dict[Signal, int] = defaultdict(int)
        resumed: Dict[object, int] = defaultdict(int)
        seq = self._seq
        delta = self.delta
        # timesteps that clock edges open (each one's first delta commits
        # them), the silent ones among them, and the other deltas
        steps = silent = deltas = changes = 0
        when, _, edge = timed[0]
        # the kernel counted the timestep the loop was entered in: the
        # clock edges still due in it join it, and it is never silent
        joined = when == now
        try:
            while True:
                if when != now:
                    if when >= end or (
                        stop_event is not None
                        and stop_event.fired_count > stop_count
                    ):
                        break
                    now = when
                    delta = 1  # the edges' commit is the step's first delta
                    limit = max_deltas
                    steps += 1
                    quiet = True
                elif joined:
                    joined = quiet = False
                    limit = delta + max_deltas
                    delta += 1
                    deltas += 1
                else:
                    # an entry a process posted for this very time; at the
                    # entry's own time the timestep loop runs it in the
                    # pass that fired the entry, without counting it
                    if now == start:
                        stats.timesteps += 1
                    break
                # the timestep's clock edges, in heap order: each commits
                # as the update phase would and wakes whoever waits on it
                # as its triggers would
                while True:
                    seq += 1
                    heapreplace(timed, (when + edge.delay, seq, edge.next))
                    sig = edge.clock.out
                    new = edge.value
                    old = sig._value
                    if new != old:
                        sig._value = new
                        toggled[sig] += 1
                        if old.__class__ is not int:
                            quiet = False
                        if sig._w_any:
                            quiet = False
                            for trig in tuple(sig._w_any):
                                trig._fire(self)
                        if new:
                            w = sig._w_rise
                            if w:
                                quiet = False
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
                    elif sig._w_any or (new and sig._w_rise):
                        quiet = False
                    next_when, _, edge = timed[0]
                    if next_when != when:
                        break
                if quiet:
                    # a silent step: its one delta resumes nobody
                    silent += 1
                    when = next_when
                    continue
                # settle the step as the delta loop would
                self.time = now
                self._seq = seq
                while ready or updates or dts:
                    deltas += 1
                    if delta >= limit:
                        raise DeltaOverflowError(
                            f"time step at t={now}ps did not stabilize "
                            f"after {max_deltas} delta cycles "
                            f"(combinational loop?)"
                        )
                    delta += 1
                    self.delta = delta
                    # ---- evaluation: the delta loop's own
                    for _ in range(len(ready)):
                        proc, sent = popleft()
                        if proc.finished:
                            continue
                        resumed[proc.owner] += 1
                        proc._waiting_on = None
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
                                proc._waiting_on = yielded
                                yielded._waiters.append(proc)
                                yielded.signal._w_rise.append(yielded)
                            elif isinstance(yielded, Trigger):
                                proc._waiting_on = yielded
                                yielded._prime(self, proc)
                            else:
                                proc._handle_nontrigger_yield(self, yielded)
                    # ---- update: the delta loop's own
                    if dts or updates:
                        changes += commit(now, None)
                    if fired:
                        for trig in fired:
                            trig._fire(self)
                        fired.clear()
                    if errors:
                        raise errors.pop(0)
                if self._seq != seq:  # a process posted a timed entry
                    seq = self._seq
                    end = bound()
                when, _, edge = timed[0]
        finally:
            fired.clear()
            if seq > self._seq:
                self._seq = seq
            self.time = now
            self.delta = delta
            changes_by_owner = stats.changes_by_owner
            for sig, n in toggled.items():
                changes += n
                if sig.owner is not None:
                    changes_by_owner[sig.owner] += n
            resumes_by_owner = stats.resumes_by_owner
            for owner, n in resumed.items():
                stats.resumes += n
                if owner is not None:
                    resumes_by_owner[owner] += n
            stats.value_changes += changes
            stats.deltas += deltas + steps
            stats.timesteps += steps
            stats.silent_timesteps += silent
        return True

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
