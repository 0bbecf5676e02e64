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
stretch of time in which two clocks wake only a few known processes
can run outside both loops (:meth:`Simulator._run_clocked`, which
IcapCTRL's bitstream DMA uses); it resumes the same generators in the
same order and commits through the delta loop's own update phase.

Activity accounting
-------------------
The paper's Table II observes that wall-clock simulation cost tracks
*signal activity*, not simulated time (the Census engine simulates
slower than the Matching engine despite covering less simulated time).
To reproduce that measurement the scheduler counts, per owning module:
process resumptions and signal value changes; ``profile=True``
additionally samples wall-clock time around each process resumption so
the ReSim-artifact overhead (§V, 1.7%) can be attributed.
"""

from __future__ import annotations

import heapq
import time as _time
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Tuple

from .clock import _ClockEdge
from .events import Event, EventTrigger, RisingEdge, Trigger, _FirstWaiter
from .process import Process, ProcessError
from .signal import Signal

if TYPE_CHECKING:
    from .codegen.backend import CodegenBackend

__all__ = ["Simulator", "SimulationError", "DeltaOverflowError", "SimStats"]


class SimulationError(RuntimeError):
    pass


class DeltaOverflowError(SimulationError):
    """Raised when a time step fails to stabilize (combinational loop)."""


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
        #: fixed at construction (the delta loop binds it once)
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
        """Start a new process; it first runs in the next delta cycle."""
        proc = Process(gen, name=name, owner=owner)
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
        is the kernel's only delta loop: every run entry point, profile mode
        and each codegen-driver bail settle through it (a silent step,
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
        rebound, so they are bound here once, with ``profile``;
        ``_vcd`` and ``time`` are read once per call.
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
        elapsed_ns_by_owner = stats.elapsed_ns_by_owner
        perf_counter_ns = _time.perf_counter_ns
        profile = self.profile
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
                            if profile:
                                t0 = perf_counter_ns()
                                try:
                                    yielded = proc._send(sent)
                                finally:
                                    if owner is not None:
                                        elapsed_ns_by_owner[owner] += (
                                            perf_counter_ns() - t0
                                        )
                            else:
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
        :meth:`run_until_event`, profile mode and the codegen backend's
        fallback.  Each step pops every timed event due at the earliest
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
        never runs: in profile mode (which times every resume), under a
        VCD writer (which records every change) and on the codegen
        backend (whose compiled driver owns the timed queue).
        """
        if self.profile or self._vcd is not None or self._backend is not None:
            return False
        self._seq += 1
        heapq.heappush(self._timed, (when, self._seq, entry))
        return True

    def _run_clocked(self, procs, clocks) -> bool:
        """Run two clocks and the processes they wake in one loop.

        Called from a timed entry's ``_fire`` (see :meth:`_post_clocked`)
        before the timestep it fires in has entered the delta loop.  The
        loop opens only if every process in ``procs`` waits alone on a
        rising edge of one of the two ``clocks`` or on an unspent event
        trigger, nothing else waits on either clock, and some other
        timed entry is due at a time T (or the run ends at its
        ``until``); it returns False, changing nothing, otherwise.

        It then does what :meth:`_run_loop` would up to T, without the
        timed queue: it fires the clocks' edges in queue order, sets
        :attr:`time`, resumes the processes an edge or event wakes with
        the trigger they waited on, commits their writes through the
        delta loop's update phase (:attr:`_commit`), and charges
        :attr:`stats` the same resumes, changes, deltas, timesteps and
        silent timesteps.  It holds the processes' waits itself while it
        runs, in priming order.  A step that makes work the loop does not
        own hands control back, at the delta where it stands: a change
        that wakes another process, a process waiting on anything else,
        finishing or raising, a forked process or a new timed entry.  The
        loop gives the waits back to their triggers, fires the triggers
        that delta raised, and returns True; the kernel's delta loop then
        finishes the step as it would have.
        """
        if (
            self._vcd is not None
            or self._ready
            or self._updates
            or self._delta_triggers
        ):
            return False
        clock_a, clock_b = clocks
        if clock_a is clock_b:
            return False
        out_a, out_b = clock_a.out, clock_b.out
        if out_a._w_any or out_b._w_any:
            return False
        events: Dict[Trigger, List[Process]] = {}
        on_clock = 0
        for proc in procs:
            trig = proc._waiting_on
            if proc.finished or trig is None or trig._waiters != [proc]:
                return False
            cls = trig.__class__
            if cls is RisingEdge:
                if trig.signal is not out_a and trig.signal is not out_b:
                    return False
                on_clock += 1
            elif cls is EventTrigger and not trig._spent:
                events[trig] = [proc]
            else:
                return False
        if len(out_a._w_rise) + len(out_b._w_rise) != on_clock:
            return False
        # each clock's one pending edge, and the earliest other entry
        now = self.time
        timed = self._timed
        pending = {}
        horizon = None
        for entry in timed:
            trig = entry[2]
            if trig.__class__ is _ClockEdge and (
                trig.clock is clock_a or trig.clock is clock_b
            ):
                pending[trig.clock] = entry
            elif horizon is None or entry[0] < horizon:
                horizon = entry[0]
        until, stop_event, stop_count = self._run_bounds
        if until is not None and (horizon is None or horizon > until):
            horizon = until + 1
        if horizon is None:
            horizon = float("inf")
        if horizon <= now or len(pending) != 2:
            return False
        at, sa, ea = pending[clock_a]
        bt, sb, eb = pending[clock_b]
        for edge, out in ((ea, out_a), (eb, out_b)):
            value = out._value
            if value.__class__ is not int or value != edge.next.value:
                return False

        # hold the waits: (process, trigger) per clock, in priming order
        wait_a = [(t._waiters[0], t) for t in out_a._w_rise]
        wait_b = [(t._waiters[0], t) for t in out_b._w_rise]
        for _, trig in wait_a + wait_b:
            trig._waiters.clear()
        out_a._w_rise.clear()
        out_b._w_rise.clear()
        for trig in events:
            trig._waiters.clear()
        holding = True

        def release() -> None:
            """Give the held waits back to their triggers."""
            for proc, trig in wait_a + wait_b:
                proc._waiting_on = trig
                trig._prime(self, proc)
            for trig, waiting in events.items():
                for proc in waiting:
                    proc._waiting_on = trig
                    trig._prime(self, proc)
            wait_a.clear()
            wait_b.clear()
            events.clear()

        stats = self.stats
        resumes_by_owner = stats.resumes_by_owner
        changes_by_owner = stats.changes_by_owner
        ready_q = self._ready
        updates = self._updates
        dts = self._delta_triggers
        errors = self._errors
        fired = self._fired_scratch
        commit = self._commit
        max_deltas = self.MAX_DELTAS_PER_STEP
        seq = self._seq
        delta = self.delta
        steps = silent = deltas = resumes = changes = 0
        changes_a = changes_b = 0
        handed_back = False
        try:
            while True:
                t = at if at <= bt else bt
                if t != now:  # the kernel counted the first step
                    if t >= horizon or (
                        stop_event is not None
                        and stop_event.fired_count > stop_count
                    ):
                        break
                    steps += 1
                    now = t
                # fire the edges due now in queue order; a rising edge
                # wakes the processes waiting on it
                if at != bt:
                    seq += 1
                    if at == t:
                        edge = ea
                        sa = seq
                        at += edge.delay
                        ea = edge.next
                        changes_a += 1
                        ready = wait_a if edge.value else None
                        if ready:
                            wait_a = []
                    else:
                        edge = eb
                        sb = seq
                        bt += edge.delay
                        eb = edge.next
                        changes_b += 1
                        ready = wait_b if edge.value else None
                        if ready:
                            wait_b = []
                else:
                    edge_a, edge_b = ea, eb
                    at += edge_a.delay
                    ea = edge_a.next
                    bt += edge_b.delay
                    eb = edge_b.next
                    changes_a += 1
                    changes_b += 1
                    woken_a = wait_a if edge_a.value else None
                    if woken_a:
                        wait_a = []
                    woken_b = wait_b if edge_b.value else None
                    if woken_b:
                        wait_b = []
                    if sa < sb:
                        sa, sb = seq + 1, seq + 2
                        ready = (
                            woken_a + woken_b
                            if woken_a and woken_b
                            else woken_a or woken_b
                        )
                    else:
                        sb, sa = seq + 1, seq + 2
                        ready = (
                            woken_b + woken_a
                            if woken_a and woken_b
                            else woken_b or woken_a
                        )
                    seq += 2
                if not ready:
                    # a silent step: one delta that resumes nobody
                    deltas += 1
                    silent += 1
                    delta = 1
                    continue
                self.time = now
                self._seq = seq
                delta = 1
                while True:
                    delta += 1
                    self.delta = delta
                    # ---- evaluation: the delta loop's resume
                    for proc, trig in ready:
                        if proc.finished:
                            continue
                        resumes += 1
                        owner = proc.owner
                        if owner is not None:
                            resumes_by_owner[owner] += 1
                        proc._waiting_on = None
                        try:
                            yielded = proc._send(trig)
                        except StopIteration as stop:
                            proc.finished = True
                            proc.result = stop.value
                            handed_back = True
                            continue
                        except Exception as exc:  # noqa: BLE001
                            proc.finished = True
                            errors.append(ProcessError(proc, exc))
                            handed_back = True
                            continue
                        if holding:
                            cls = yielded.__class__
                            if cls is RisingEdge:
                                if yielded.signal is out_a:
                                    wait_a.append((proc, yielded))
                                    continue
                                if yielded.signal is out_b:
                                    wait_b.append((proc, yielded))
                                    continue
                            elif cls is EventTrigger and not yielded._spent:
                                waiting = events.get(yielded)
                                if waiting is not None:
                                    waiting.append(proc)
                                    continue
                                if not yielded._waiters:
                                    events[yielded] = [proc]
                                    continue
                            # a wait the loop does not own: from here on
                            # every wait is primed as the delta loop would
                            release()
                            holding = False
                            handed_back = True
                        if isinstance(yielded, Trigger):
                            proc._waiting_on = yielded
                            yielded._prime(self, proc)
                        else:
                            proc._handle_nontrigger_yield(self, yielded)
                    # ---- update: the delta loop's own
                    if dts or updates:
                        changes += commit(now, None)
                    if (
                        handed_back
                        or ready_q
                        or self._seq != seq
                        or delta >= max_deltas
                    ):
                        handed_back = True
                        break
                    if not fired:
                        break
                    for trig in fired:
                        if trig not in events:
                            handed_back = True
                            break
                    else:
                        ready = [
                            (proc, trig)
                            for trig in fired
                            for proc in events.pop(trig)
                        ]
                        fired.clear()
                        continue
                    break
                deltas += delta
                if handed_back:
                    break
        finally:
            # re-queue the clocks' pending edges and commit the level
            # each one's last fired edge drove
            for i, entry in enumerate(timed):
                trig = entry[2]
                if trig.__class__ is _ClockEdge:
                    if trig.clock is clock_a:
                        timed[i] = (at, sa, ea)
                    elif trig.clock is clock_b:
                        timed[i] = (bt, sb, eb)
            heapq.heapify(timed)
            out_a._value = ea.next.value
            out_b._value = eb.next.value
            if self._seq < seq:
                self._seq = seq
            if holding:
                release()
            changes_by_owner[out_a.owner] += changes_a
            changes_by_owner[out_b.owner] += changes_b
            stats.resumes += resumes
            stats.value_changes += changes + changes_a + changes_b
            stats.deltas += deltas
            stats.timesteps += steps
            stats.silent_timesteps += silent
        # the kernel's delta loop finishes a step handed back at ``delta``,
        # from the triggers this delta's update raised
        self.time = now
        self.delta = delta
        if handed_back:
            try:
                for trig in fired:
                    trig._fire(self)
            finally:
                fired.clear()
            if errors:
                raise errors.pop(0)
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
