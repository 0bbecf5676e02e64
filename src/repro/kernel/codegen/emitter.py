"""Straight-line Python emission, compiled once at elaboration.

Two emitters live here:

:func:`compile_region`
    turns a levelized list of combinational rules into one packed-int
    function ``(i0, i1, ...) -> (t0, t1, ...)`` — no LogicVector
    objects, no delta iteration, width masks precomputed and bound as
    namespace constants;

:func:`compile_driver`
    generates the per-design scheduler driver used by
    :class:`~repro.kernel.codegen.backend.CodegenBackend`.  Each clock
    of the elaborated design gets a dedicated dispatch arm with the
    clock, its two edge objects, its output signal and its half-period
    delays bound as namespace constants.  Three execution tiers per
    clock, fastest first:

    * **batch skip** — nobody is listening and the heap provably holds
      nothing but this clock's edges: consume the whole posted batch
      with O(1) bulk arithmetic;
    * **sprint** — the heap is still pure but the clock has edge
      waiters: drain the heap once and drive the edge sequence
      arithmetically (times alternate by the two half-period delays),
      committing toggles and resuming single-process waiters inline
      with zero heap traffic; any foreign scheduling (a Timer primed by
      a resumed process, an event, X/Z, ``finish()``) re-posts the
      remaining edges and returns control to the generic loop;
    * **single edge** — mixed heap (other clocks, pending timers): pop
      and handle one edge inline, still skipping the interpreter's
      delta-loop scaffolding.

    A resumed process that re-waits on a *fresh* trigger of the same
    kind on the same signal (the dominant ``while True: yield
    RisingEdge(clk)`` pattern) is re-armed by swapping the new trigger
    into the old one's list slot — no list remove/append, no prime
    call.

    Lone-waiter ``Timer`` events are drained by a **timer sprint**
    that resumes each waiter inline.  After any resume, pending
    updates are committed by the **settle epilogue**: a single-update
    round takes a lean inline path, a multi-update round the generic
    one, and either replays through the interpreter on anything it
    cannot represent exactly (X/Z, monitors, mis-sized commits,
    multi-process or ``First`` waiters).

    The driver's stats accounting is bit-exact against the interpreter
    for resumes / value changes / per-owner maps (see the backend
    module docstring for the full contract); ``deltas``/``timesteps``
    may differ slightly at bail-out boundaries.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

from ..clock import Clock
from ..events import Timer, Trigger
from ..process import Process, ProcessError
from ..signal import Signal
from ..simulator import DeltaOverflowError
from .backend import _unprime_edge, record_codegen_event
from .expr import EmitContext

__all__ = ["compile_region", "compile_driver"]


# ----------------------------------------------------------------------
# Combinational regions
# ----------------------------------------------------------------------
def compile_region(owner, ordered_rules: Sequence, inputs: List[Signal]):
    """Compile a levelized rule list to one straight-line function.

    Returns ``(fn, source)``.  ``fn`` takes the region's external input
    values as plain ints (callers guarantee they are fully defined) and
    returns the target values as a tuple of ints, in rule order.
    """
    names = {sig: f"i{k}" for k, sig in enumerate(inputs)}
    ctx = EmitContext(names)
    lines = []
    for j, rule in enumerate(ordered_rules):
        tname = f"t{j}"
        lines.append(f"    {tname} = {rule.expr.emit(ctx)}")
        # later rules read earlier targets as already-settled locals
        names[rule.target] = tname
    args = ", ".join(f"i{k}" for k in range(len(inputs)))
    rets = ", ".join(f"t{j}" for j in range(len(ordered_rules)))
    src = f"def _comb({args}):\n" + "\n".join(lines) + f"\n    return ({rets},)\n"
    ns = dict(ctx.consts)
    exec(compile(src, f"<comb:{owner.path}>", "exec"), ns)  # noqa: S102
    return ns["_comb"], src


# ----------------------------------------------------------------------
# The scheduler driver
# ----------------------------------------------------------------------
def _indent(block: str, ind: str) -> str:
    return "".join(
        ind + line + "\n" if line.strip() else "\n"
        for line in block.splitlines()
    )


# Resume the single plain-Process waiter of Edge trigger ``et`` (taken
# from waiter list ``{wl}`` of signal ``{sig}``, with ``ws`` already
# bound to ``et._waiters``).  ``y is et`` is the steady-state identity
# shortcut; the ``wl[0] = y`` swap re-arms a *fresh* same-kind trigger
# on the same signal without list remove/append traffic.  Both leave
# exactly the state the interpreter's fire-then-reprime produces.
_RESUME_SWAP = """\
resumes += 1
ow = proc.owner
if ow is not None:
    owner_resumes[ow] = owner_resumes.get(ow, 0) + 1
proc._waiting_on = None
proc.resume_count += 1
try:
    y = proc._send(et)
except StopIteration as stop:
    proc.finished = True
    proc.result = stop.value
    _unprime_edge(et)
    proc._finish(sim)
except Exception as exc:
    proc.finished = True
    proc.exception = exc
    _unprime_edge(et)
    proc._finish(sim)
    errors.append(ProcessError(proc, exc))
else:
    if y is et:
        proc._waiting_on = et
    elif (y.__class__ is et.__class__ and {wl}[0] is et
            and len({wl}) == 1 and y.signal is {sig}):
        et._waiters.clear()
        {wl}[0] = y
        y._waiters.append(proc)
        proc._waiting_on = y
    elif isinstance(y, Trigger):
        _unprime_edge(et)
        proc._waiting_on = y
        y._prime(sim, proc)
    else:
        _unprime_edge(et)
        proc._handle_nontrigger_yield(sim, y)
"""

# Generic resume of one Edge waiter inside a multi-trigger round
# (``et``/``ws``/``proc`` bound by the surrounding loop).
_RESUME_EDGE = """\
resumes += 1
ow = proc.owner
if ow is not None:
    owner_resumes[ow] = owner_resumes.get(ow, 0) + 1
proc._waiting_on = None
proc.resume_count += 1
try:
    y = proc._send(et)
except StopIteration as stop:
    proc.finished = True
    proc.result = stop.value
    _unprime_edge(et)
    proc._finish(sim)
except Exception as exc:
    proc.finished = True
    proc.exception = exc
    _unprime_edge(et)
    proc._finish(sim)
    errors.append(ProcessError(proc, exc))
else:
    if y is et:
        proc._waiting_on = et
    elif isinstance(y, Trigger):
        _unprime_edge(et)
        proc._waiting_on = y
        y._prime(sim, proc)
    else:
        _unprime_edge(et)
        proc._handle_nontrigger_yield(sim, y)
"""

# Resume a waiter whose trigger is already fully consumed (Timer popped
# from the heap, waiter list cleared) — the resume of the interpreter's
# delta loop (``Simulator._step_deltas``), verbatim.
_RESUME_GENERIC = """\
resumes += 1
ow = proc.owner
if ow is not None:
    owner_resumes[ow] = owner_resumes.get(ow, 0) + 1
proc._waiting_on = None
proc.resume_count += 1
try:
    y = proc._send(trig)
except StopIteration as stop:
    proc.finished = True
    proc.result = stop.value
    proc._finish(sim)
except Exception as exc:
    proc.finished = True
    proc.exception = exc
    proc._finish(sim)
    errors.append(ProcessError(proc, exc))
else:
    if isinstance(y, Trigger):
        proc._waiting_on = y
        y._prime(sim, proc)
    else:
        proc._handle_nontrigger_yield(sim, y)
"""

# Settle the pending signal updates of the current timestep inline.
# One round per delta: commit scheduled updates 2-state, collect fired
# edge triggers, resume their waiters directly.  Anything the inline
# form cannot represent exactly (X/Z, monitors, mis-sized commits,
# First/multi-process waiters) is replayed through the interpreter at
# the exact phase boundary the interpreter itself would be at.
_EPILOGUE = """\
rounds = 0
while updates:
    rounds += 1
    if rounds > max_rounds:
        raise DeltaOverflowError(
            f"time step at t={{sim.time}}ps did not stabilize after "
            f"{{max_rounds}} delta cycles (combinational loop?)"
        )
    if len(updates) == 1:
        signal, new = updates.popitem()
        old2 = signal._value
        if (new.xmask | new.zmask | old2.xmask | old2.zmask
                or signal._monitors is not None
                or new.width != signal.width):
            updates[signal] = new
            sim._step_deltas()
            break
        signal.fast_hits += 1
        if new.value == old2.value:
            continue
        signal._value = new
        signal.change_count += 1
        changes += 1
        ow = signal.owner
        if ow is not None:
            owner_changes[ow] = owner_changes.get(ow, 0) + 1
        w_any2 = signal._w_any
        w_r2 = signal._w_rise
        w_f2 = signal._w_fall
        if not (w_any2 or w_r2 or w_f2):
            # nobody watches this signal: skip the edge-kind math
            if ready or dts:
                sim._step_deltas()
                break
            continue
        nv = new.value & 1
        ov = old2.value & 1
        rise2 = w_r2 and nv == 1 and ov != 1
        fall2 = w_f2 and nv == 0 and ov != 0
        if not w_any2 and not rise2 and not fall2:
            if ready or dts:
                sim._step_deltas()
                break
            continue
        if len(w_any2) == 1 and not rise2 and not fall2:
            et = w_any2[0]
            ws = et._waiters
            if len(ws) != 1 or ws[0].__class__ is not Process:
                et._fire(sim)
                sim._step_deltas()
                break
            deltas += 1
            proc = ws[0]
            if proc.finished:
                _unprime_edge(et)
                continue
{resume_single}\
            if errors:
                break
            continue
        fired = []
        if w_any2:
            fired.extend(w_any2)
        if rise2:
            fired.extend(w_r2)
        if fall2:
            fired.extend(w_f2)
    else:
        items = list(updates.items())
        updates.clear()
        simple = True
        for signal, new in items:
            old2 = signal._value
            if (new.xmask | new.zmask | old2.xmask | old2.zmask
                    or signal._monitors is not None
                    or new.width != signal.width):
                simple = False
                break
        if not simple:
            # X/Z, monitor or mis-sized commit: replay the whole
            # round through the interpreter, untouched
            for signal, new in items:
                updates[signal] = new
            sim._step_deltas()
            break
        fired = []
        for signal, new in items:
            old2 = signal._value
            signal.fast_hits += 1
            if new.value == old2.value:
                continue
            signal._value = new
            signal.change_count += 1
            changes += 1
            ow = signal.owner
            if ow is not None:
                owner_changes[ow] = owner_changes.get(ow, 0) + 1
            w = signal._w_any
            if w:
                fired.extend(w)
            nv = new.value & 1
            ov = old2.value & 1
            w = signal._w_rise
            if w and nv == 1 and ov != 1:
                fired.extend(w)
            w = signal._w_fall
            if w and nv == 0 and ov != 0:
                fired.extend(w)
        if not fired:
            if ready or dts:
                sim._step_deltas()
                break
            continue
    allsimple = True
    for et in fired:
        ws = et._waiters
        if len(ws) > 1 or (ws and ws[0].__class__ is not Process):
            allsimple = False
            break
    if not allsimple:
        # commits are done; hand the wakeups to the interpreter in
        # canonical order
        for et in fired:
            et._fire(sim)
        sim._step_deltas()
        break
    deltas += 1
    for et in fired:
        ws = et._waiters
        if not ws:
            _unprime_edge(et)
            continue
        proc = ws[0]
        if proc.finished:
            _unprime_edge(et)
            continue
{resume_multi}\
    if errors:
        break
"""


def _epilogue(ind: str) -> str:
    block = _EPILOGUE.format(
        resume_single=_indent(
            _RESUME_SWAP.format(wl="w_any2", sig="signal"), " " * 12
        ),
        resume_multi=_indent(_RESUME_EDGE, " " * 8),
    )
    return _indent(block, ind)


# One dispatch arm per clock.  {kw} is "if" for the first clock and
# "elif" after; C{i}/C{i}A/C{i}B/C{i}O/C{i}D1/C{i}D2 are the clock,
# its two reusable edge objects, its output signal and its two
# half-period delays, bound as namespace constants.
_CLOCK_ARM = """\
            {kw} trig is C{i}A or trig is C{i}B:
                out = C{i}O
                w_r = out._w_rise
                w_f = out._w_fall
                w_a = out._w_any
                old = out._value
                if (until is not None
                        and len(timed) == C{i}._outstanding
                        and out._monitors is None and not w_a
                        and not (old.xmask | old.zmask)):
                    # heap-pure: nothing in the timed queue but this
                    # clock's edges
                    if not w_r and not w_f and C{i}._t <= until:
                        # batch skip: nobody is listening — consume the
                        # whole posted batch with bulk arithmetic
                        n = C{i}._outstanding
                        if n & 1:
                            last = trig
                            nb = (n + 1) >> 1 if trig is C{i}B else n >> 1
                        else:
                            last = C{i}B if trig is C{i}A else C{i}A
                            nb = n >> 1
                        out._value = last.value
                        out.fast_hits += n
                        nch = n if old.value != trig.value.value else n - 1
                        out.change_count += nch
                        changes += nch
                        cch{i} += nch
                        deltas += n
                        steps += n
                        C{i}.cycles += nb
                        sim.time = C{i}._t
                        timed.clear()
                        C{i}._outstanding = 0
                        C{i}._post_batch(sim)
                        continue
                    # sprint: drive the edge sequence arithmetically.
                    # Edges that wake nobody are pure arithmetic (local
                    # counters, one value store); only an edge that ran
                    # user code (a resume) needs the settle checks and
                    # re-validation, because only user code can create
                    # updates/timers/events/monitors/X or finish().
                    rem = C{i}._outstanding - 1
                    cur = trig
                    t = when
                    cyc = 0
                    fh = 0
                    chc = 0
                    timed.clear()
                    while True:
                        steps += 1
                        deltas += 1
                        cyc += cur.bump
                        fh += 1
                        val = cur.value
                        vv = val.value
                        old = out._value
                        if vv != old.value:
                            out._value = val
                            chc += 1
                            wl = w_r if vv == 1 else w_f
                            nwl = len(wl)
                            if nwl == 1:
                                # flush deferred state before user code
                                sim.time = t
                                C{i}.cycles += cyc
                                cyc = 0
                                out.fast_hits += fh
                                fh = 0
                                out.change_count += chc
                                changes += chc
                                cch{i} += chc
                                chc = 0
                                et = wl[0]
                                ws = et._waiters
                                if len(ws) == 1 and ws[0].__class__ is Process:
                                    deltas += 1
                                    proc = ws[0]
                                    if proc.finished:
                                        _unprime_edge(et)
                                    else:
{resume_sprint}\
                                else:
                                    et._fire(sim)
                                    _repost{i}(cur, t, rem)
                                    sim._step_deltas()
                                    break
                            elif nwl:
                                sim.time = t
                                C{i}.cycles += cyc
                                cyc = 0
                                out.fast_hits += fh
                                fh = 0
                                out.change_count += chc
                                changes += chc
                                cch{i} += chc
                                chc = 0
                                ok = True
                                for et in wl:
                                    ws = et._waiters
                                    if len(ws) > 1 or (
                                            ws and ws[0].__class__
                                            is not Process):
                                        ok = False
                                        break
                                if not ok:
                                    for et in tuple(wl):
                                        et._fire(sim)
                                    _repost{i}(cur, t, rem)
                                    sim._step_deltas()
                                    break
                                deltas += 1
                                for et in tuple(wl):
                                    ws = et._waiters
                                    if not ws:
                                        _unprime_edge(et)
                                        continue
                                    proc = ws[0]
                                    if proc.finished:
                                        _unprime_edge(et)
                                        continue
{resume_sprint_multi}\
                            else:
                                nwl = 0
                            if nwl:
                                # user code ran: settle and re-validate.
                                # The common resume (a bus beat) writes
                                # exactly one unwatched signal — commit
                                # it inline without the epilogue loop.
                                if (len(updates) == 1 and not ready
                                        and not dts):
                                    signal, new = updates.popitem()
                                    old2 = signal._value
                                    if (new.xmask | new.zmask
                                            | old2.xmask | old2.zmask
                                            or signal._monitors is not None
                                            or new.width != signal.width
                                            or signal._w_any
                                            or signal._w_rise
                                            or signal._w_fall):
                                        updates[signal] = new
                                    else:
                                        signal.fast_hits += 1
                                        if new.value != old2.value:
                                            signal._value = new
                                            signal.change_count += 1
                                            changes += 1
                                            ow = signal.owner
                                            if ow is not None:
                                                owner_changes[ow] = (
                                                    owner_changes.get(ow, 0)
                                                    + 1)
                                if updates:
{epilogue_sprint}\
                                elif ready or dts:
                                    sim._step_deltas()
                                if errors or sim._finished:
                                    _repost{i}(cur, t, rem)
                                    break
                                if timed:
                                    # a resume scheduled a foreign timed
                                    # event: merge the remaining edges
                                    # back and let the generic loop
                                    # re-order
                                    _repost{i}(cur, t, rem)
                                    break
                                if event is not None and (
                                        event.fired_count > event_start):
                                    _repost{i}(cur, t, rem)
                                    break
                                old = out._value
                                if (old.xmask | old.zmask or w_a
                                        or out._monitors is not None):
                                    _repost{i}(cur, t, rem)
                                    break
                                if not w_r and not w_f:
                                    # everyone stopped listening (idle
                                    # tail): drop to the batch-skip tier
                                    _repost{i}(cur, t, rem)
                                    break
                        # advance to the next edge.  No batch re-post:
                        # the sprint keeps the heap empty and _repost{i}
                        # rebuilds _t/_outstanding at every exit.
                        if not rem:
                            rem = {batch2}
                        if cur is C{i}A:
                            tn = t + C{i}D2
                            nxt = C{i}B
                        else:
                            tn = t + C{i}D1
                            nxt = C{i}A
                        if tn > until:
                            _repost{i}(cur, t, rem)
                            break
                        cur = nxt
                        t = tn
                        rem -= 1
                    sim.time = t
                    C{i}.cycles += cyc
                    out.fast_hits += fh
                    out.change_count += chc
                    changes += chc
                    cch{i} += chc
                    continue
                # mixed heap: handle one edge inline
                n2 = len(timed)
                if (n2 > 1 and timed[1][0] == when) or (
                        n2 > 2 and timed[2][0] == when):
                    why = 'clock-simultaneous'
                    break  # simultaneous events: generic timestep
                if (old.xmask | old.zmask) or out._monitors is not None or w_a:
                    why = 'clock-xz-monitor-any'
                    break
                val = trig.value
                wl = w_r if val.value == 1 else w_f
                ok = True
                for et in wl:
                    ws = et._waiters
                    if len(ws) != 1 or ws[0].__class__ is not Process:
                        ok = False
                        break
                if not ok:
                    why = 'clock-waiters'
                    break
                heappop(timed)
                sim.time = when
                steps += 1
                deltas += 1
                C{i}.cycles += trig.bump
                C{i}._outstanding -= 1
                if not C{i}._outstanding:
                    C{i}._post_batch(sim)
                out.fast_hits += 1
                if val.value == old.value:
                    continue  # forced to the edge's phase: no change
                out._value = val
                out.change_count += 1
                changes += 1
                cch{i} += 1
                if not wl:
                    continue
                deltas += 1
                for et in tuple(wl):
                    ws = et._waiters
                    if not ws:
                        _unprime_edge(et)
                        continue
                    proc = ws[0]
                    if proc.finished:
                        _unprime_edge(et)
                        continue
{resume_edge}\
"""

# Re-post a sprinting clock's remaining unprocessed edges to the timed
# queue: ``rem`` edges following edge ``cur`` at time ``tt``, with the
# clock's bookkeeping (_t, _outstanding) restored to match.
_REPOST = """\
    def _repost{i}(cur, tt, rem):
        if not rem:
            C{i}._t = tt
            C{i}._outstanding = 0
            C{i}._post_batch(sim)
            return
        seq = sim._seq
        e = cur
        for _ in range(rem):
            if e is C{i}A:
                tt += C{i}D2
                e = C{i}B
            else:
                tt += C{i}D1
                e = C{i}A
            seq += 1
            heappush(timed, (tt, seq, e))
        sim._seq = seq
        C{i}._t = tt
        C{i}._outstanding = rem
"""

_DRIVER_TEMPLATE = """\
def driver(sim, until, event, event_start):
    if sim._vcd is not None or sim.tracer is not None:
        return 2
    timed = sim._timed
    ready = sim._ready
    updates = sim._updates
    dts = sim._delta_triggers
    errors = sim._errors
    stats = sim.stats
    max_rounds = sim.MAX_DELTAS_PER_STEP
    resumes = 0
    changes = 0
    deltas = 0
    steps = 0
    owner_resumes = {{}}
    owner_changes = {{}}
    status = 0
    why = 'pending-work'
{clock_locals}\
{reposts}\
    try:
        while True:
            if errors or ready or updates or dts:
                break  # pending work: the backend settles it generically
            if sim._finished:
                status = 1
                break
            if event is not None and event.fired_count > event_start:
                status = 1
                break
            if not timed:
                status = 1
                break
            e0 = timed[0]
            when = e0[0]
            if until is not None and when > until:
                sim.time = until
                status = 1
                break
            trig = e0[2]
{clock_arms}\
            {timer_kw} type(trig) is Timer:
                # ---- timer sprint: drain consecutive lone-Timer events
                # with an inline single-update settle, no outer-loop
                # re-dispatch between them (the timer-paced update
                # pattern behind the signal_update kernel) ----
                bail = 0
                while True:
                    n2 = len(timed)
                    if (n2 > 1 and timed[1][0] == when) or (
                            n2 > 2 and timed[2][0] == when):
                        why = 'timer-simultaneous'
                        bail = 1
                        break
                    ws = trig._waiters
                    if len(ws) != 1 or ws[0].__class__ is not Process:
                        why = 'timer-waiters'
                        bail = 1
                        break
                    heappop(timed)
                    sim.time = when
                    steps += 1
                    deltas += 1
                    proc = ws[0]
                    ws.clear()
                    if not proc.finished:
{resume_timer}\
                    if errors:
                        why = 'process-error'
                        bail = 1
                        break
                    if ready or dts:
                        sim._step_deltas()
                        if errors:
                            why = 'process-error'
                            bail = 1
                            break
                    else:
{epilogue_timer}\
                        if errors:
                            why = 'process-error'
                            bail = 1
                            break
                    if sim._finished:
                        status = 1
                        bail = 1
                        break
                    if event is not None and event.fired_count > event_start:
                        status = 1
                        bail = 1
                        break
                    if not timed:
                        status = 1
                        bail = 1
                        break
                    e0 = timed[0]
                    when = e0[0]
                    if until is not None and when > until:
                        sim.time = until
                        status = 1
                        bail = 1
                        break
                    trig = e0[2]
                    if type(trig) is not Timer:
                        break
                if bail:
                    break
                continue
            else:
                why = 'unspecialized-trigger'
                break  # unspecialized trigger type: generic timestep
            # ---- epilogue: settle the timestep inline ----
            if errors:
                why = 'process-error'
                break
            if ready or dts:
                sim._step_deltas()
                continue
{epilogue_main}\
            if errors:
                why = 'process-error'
                break
    finally:
        stats.resumes += resumes
        stats.value_changes += changes
        stats.deltas += deltas
        stats.timesteps += steps
        if owner_resumes:
            rbo = stats.resumes_by_owner
            for k, v in owner_resumes.items():
                rbo[k] += v
        if owner_changes:
            cbo = stats.changes_by_owner
            for k, v in owner_changes.items():
                cbo[k] += v
{clock_flush}\
        if status == 0:
            _record_bail(sim, 'bail', why)
    return status
"""


def _clocks_of(sim) -> List[Clock]:
    clocks = []
    for top in sim._modules:
        for mod in top.iter_tree():
            if isinstance(mod, Clock) and mod not in clocks:
                clocks.append(mod)
    return clocks


# The driver source depends only on the number of clocks — every
# design-specific object (clock instances, edge objects, output
# signals, half-period delays) is bound through the exec namespace.
# Caching the compiled code object per clock count makes per-Simulator
# driver setup O(exec-of-a-def) instead of O(compile-700-lines), which
# matters for short runs and for test suites creating many simulators.
_CODE_CACHE: dict = {}


def compile_driver(sim) -> Tuple[object, str]:
    """Generate, compile and return the design's scheduler driver.

    Returns ``(driver, source)``.  The driver is called as
    ``driver(sim, until, event, event_start) -> status`` with status
    0 = bail to interpreter, 1 = done, 2 = permanent fallback.
    """
    clocks = _clocks_of(sim)
    cached = _CODE_CACHE.get(len(clocks))
    if cached is not None:
        code, src = cached
    else:
        arms = []
        reposts = []
        for i, _clk in enumerate(clocks):
            arms.append(
                _CLOCK_ARM.format(
                    i=i,
                    kw="if" if i == 0 else "elif",
                    batch2=2 * Clock.BATCH,
                    resume_sprint=_indent(
                        _RESUME_SWAP.format(wl="wl", sig=f"C{i}O"), " " * 40
                    ),
                    resume_sprint_multi=_indent(_RESUME_EDGE, " " * 36),
                    epilogue_sprint=_epilogue(" " * 36),
                    resume_edge=_indent(_RESUME_EDGE, " " * 20),
                )
            )
            reposts.append(_REPOST.format(i=i))
        locals_ = "".join(f"    cch{i} = 0\n" for i in range(len(clocks)))
        flush = "".join(
            f"        if cch{i}:\n"
            f"            cbo = stats.changes_by_owner\n"
            f"            cbo[C{i}] += cch{i}\n"
            for i in range(len(clocks))
        )
        src = _DRIVER_TEMPLATE.format(
            reposts="".join(reposts),
            clock_arms="".join(arms),
            timer_kw="elif" if clocks else "if",
            resume_timer=_indent(_RESUME_GENERIC, " " * 24),
            epilogue_timer=_epilogue(" " * 24),
            epilogue_main=_epilogue(" " * 12),
            clock_locals=locals_,
            clock_flush=flush,
        )
        code = compile(src, f"<codegen-driver-{len(clocks)}clk>", "exec")
        _CODE_CACHE[len(clocks)] = (code, src)
    ns = {
        "heappop": heapq.heappop,
        "heappush": heapq.heappush,
        "Process": Process,
        "ProcessError": ProcessError,
        "Timer": Timer,
        "Trigger": Trigger,
        "DeltaOverflowError": DeltaOverflowError,
        "_unprime_edge": _unprime_edge,
        "_record_bail": record_codegen_event,
    }
    for i, clk in enumerate(clocks):
        ns[f"C{i}"] = clk
        ns[f"C{i}A"] = clk._edge_a
        ns[f"C{i}B"] = clk._edge_b
        ns[f"C{i}O"] = clk.out
        ns[f"C{i}D1"] = clk._first_delay
        ns[f"C{i}D2"] = clk._second_delay
    exec(code, ns)  # noqa: S102
    return ns["driver"], src
