"""Straight-line Python emission of the scheduler driver, compiled once.

:func:`compile_driver` generates the per-design scheduler driver used
by :class:`~repro.kernel.codegen.backend.CodegenBackend`.  The driver
takes one timestep per loop iteration, and only a step that holds a
single timed event; a step with simultaneous events (on the paper SoC,
every ``cfg_clk`` edge lands on a ``bus_clk`` edge) goes back to the
interpreter.  It has three parts:

* **clock arms** — one per clock of the elaborated design, with the
  clock, its two edge objects and its output signal bound as namespace
  constants: replace the edge in the heap with the clock's next one,
  commit the toggle 2-state and resume its single-process edge waiters
  inline;
* **timer arm** — pop a ``Timer`` with one plain waiter and resume it;
* **settle epilogue** — commit the updates the resumes scheduled, one
  round per delta: a single-update round takes a lean inline path, a
  multi-update round the generic one, and either replays through the
  interpreter on anything it cannot represent exactly (X, multi-process
  or ``First`` waiters).

The driver's stats accounting is bit-exact against the interpreter
for resumes / value changes / per-owner maps (see the backend
module docstring for the full contract); ``deltas``/``timesteps``
may differ slightly at bail-out boundaries.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from ..clock import Clock
from ..events import Timer, Trigger
from ..process import Process, ProcessError
from ..simulator import DeltaOverflowError
from .backend import _unprime_edge, record_codegen_event

__all__ = ["compile_driver"]


def _indent(block: str, ind: str) -> str:
    return "".join(
        ind + line + "\n" if line.strip() else "\n"
        for line in block.splitlines()
    )


# Resume one Edge waiter (``et``/``proc`` bound by the surrounding
# loop), leaving the state the interpreter's fire-then-reprime leaves.
_RESUME_EDGE = """\
resumes += 1
ow = proc.owner
if ow is not None:
    owner_resumes[ow] = owner_resumes.get(ow, 0) + 1
try:
    y = proc._send(et)
except StopIteration as stop:
    proc.finished = True
    proc.result = stop.value
    _unprime_edge(et)
except Exception as exc:
    proc.finished = True
    _unprime_edge(et)
    errors.append(ProcessError(proc, exc))
else:
    if y is not et:
        _unprime_edge(et)
        if isinstance(y, Trigger):
            y._prime(sim, proc)
        else:
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
try:
    y = proc._send(trig)
except StopIteration as stop:
    proc.finished = True
    proc.result = stop.value
except Exception as exc:
    proc.finished = True
    errors.append(ProcessError(proc, exc))
else:
    if isinstance(y, Trigger):
        y._prime(sim, proc)
    else:
        proc._handle_nontrigger_yield(sim, y)
"""

# Settle the pending signal updates of the current timestep inline.
# One round per delta: commit scheduled updates 2-state, collect fired
# edge triggers, resume their waiters directly.  Anything the inline
# form cannot represent exactly (X on either side of a commit,
# First/multi-process waiters) is replayed through the interpreter at
# the exact phase boundary the interpreter itself would be at.  Every
# scheduled value already has its signal's width (``Signal.next``
# coerces it) and is an ``int`` unless it carries X, so an ``int``
# compare decides a change.
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
        if new.__class__ is not int or old2.__class__ is not int:
            updates[signal] = new
            sim._step_deltas()
            break
        if new == old2:
            continue
        signal._value = new
        changes += 1
        ow = signal.owner
        if ow is not None:
            owner_changes[ow] = owner_changes.get(ow, 0) + 1
        w_any2 = signal._w_any
        rise2 = new & 1 and not old2 & 1 and signal._w_rise
        if not w_any2 and not rise2:
            # nothing watches this change
            if ready or dts:
                sim._step_deltas()
                break
            continue
        fired = []
        if w_any2:
            fired.extend(w_any2)
        if rise2:
            fired.extend(rise2)
    else:
        items = list(updates.items())
        updates.clear()
        simple = True
        for signal, new in items:
            if new.__class__ is not int or signal._value.__class__ is not int:
                simple = False
                break
        if not simple:
            # an X commit: replay the whole round through the
            # interpreter, untouched
            for signal, new in items:
                updates[signal] = new
            sim._step_deltas()
            break
        fired = []
        for signal, new in items:
            old2 = signal._value
            if new == old2:
                continue
            signal._value = new
            changes += 1
            ow = signal.owner
            if ow is not None:
                owner_changes[ow] = owner_changes.get(ow, 0) + 1
            w = signal._w_any
            if w:
                fired.extend(w)
            w = signal._w_rise
            if w and new & 1 and not old2 & 1:
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
{resume}\
    if errors:
        break
"""

# One dispatch arm per clock.  {kw} is "if" for the first clock and
# "elif" after; C{i}/C{i}A/C{i}B/C{i}O are the clock, its two reusable
# edge objects and its output signal, bound as namespace constants.
_CLOCK_ARM = """\
            {kw} trig is C{i}A or trig is C{i}B:
                n2 = len(timed)
                if (n2 > 1 and timed[1][0] == when) or (
                        n2 > 2 and timed[2][0] == when):
                    why = 'clock-simultaneous'
                    break  # simultaneous events: generic timestep
                out = C{i}O
                old = out._value
                if old.__class__ is not int or out._w_any:
                    why = 'clock-x-any'
                    break
                val = trig.value
                wl = out._w_rise if val == 1 else ()
                ok = True
                for et in wl:
                    ws = et._waiters
                    if len(ws) != 1 or ws[0].__class__ is not Process:
                        ok = False
                        break
                if not ok:
                    why = 'clock-waiters'
                    break
                sim._seq += 1
                heapreplace(timed, (when + trig.delay, sim._seq, trig.next))
                sim.time = when
                steps += 1
                deltas += 1
                if val == old:
                    continue  # already at the edge's value: no change
                out._value = val
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
    try:
        while True:
            if errors or ready or updates or dts:
                break  # pending work: the backend settles it generically
            if event is not None and event.fired_count > event_start:
                status = 1
                break
            if not timed:
                status = 1
                break
            e0 = timed[0]
            when = e0[0]
            if until is not None and when > until:
                if until != sim.time:
                    sim.time = until
                    sim.delta = 0
                status = 1
                break
            trig = e0[2]
{clock_arms}\
            {timer_kw} type(trig) is Timer:
                n2 = len(timed)
                if (n2 > 1 and timed[1][0] == when) or (
                        n2 > 2 and timed[2][0] == when):
                    why = 'timer-simultaneous'
                    break
                ws = trig._waiters
                if len(ws) != 1 or ws[0].__class__ is not Process:
                    why = 'timer-waiters'
                    break
                heappop(timed)
                sim.time = when
                steps += 1
                deltas += 1
                proc = ws[0]
                ws.clear()
                if not proc.finished:
{resume_timer}\
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
{epilogue}\
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
            _record_bail(sim, why)
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
# signals) is bound through the exec namespace.  Caching the compiled
# code object per clock count makes per-Simulator driver setup
# O(exec-of-a-def) instead of O(compile-the-source), which matters for
# short runs and for test suites creating many simulators.
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
        arms = "".join(
            _CLOCK_ARM.format(
                i=i,
                kw="if" if i == 0 else "elif",
                resume_edge=_indent(_RESUME_EDGE, " " * 20),
            )
            for i in range(len(clocks))
        )
        locals_ = "".join(f"    cch{i} = 0\n" for i in range(len(clocks)))
        flush = "".join(
            f"        if cch{i}:\n"
            f"            cbo = stats.changes_by_owner\n"
            f"            cbo[C{i}] += cch{i}\n"
            for i in range(len(clocks))
        )
        epilogue = _EPILOGUE.format(resume=_indent(_RESUME_EDGE, " " * 8))
        src = _DRIVER_TEMPLATE.format(
            clock_arms=arms,
            timer_kw="elif" if clocks else "if",
            resume_timer=_indent(_RESUME_GENERIC, " " * 20),
            epilogue=_indent(epilogue, " " * 12),
            clock_locals=locals_,
            clock_flush=flush,
        )
        code = compile(src, f"<codegen-driver-{len(clocks)}clk>", "exec")
        _CODE_CACHE[len(clocks)] = (code, src)
    ns = {
        "heappop": heapq.heappop,
        "heapreplace": heapq.heapreplace,
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
    exec(code, ns)  # noqa: S102
    return ns["driver"], src
