"""Structured simulation tracing — one substrate for every layer.

The paper's central evidence is *observational*: Table II's per-phase
cost, Figure 5's reconfiguration timeline and §V's artifact overhead
are all measurements of a running simulation.  This module gives the
stack a single trace substrate those measurements (and humans with
Perfetto) can share, instead of per-layer ad-hoc logs:

* a :class:`Tracer` owned by the :class:`~repro.kernel.simulator.Simulator`
  (``sim.tracer``), exposing ``span(category, name, **args)`` context
  managers plus instant and counter events,
* every event carries **both** timestamps: simulated picoseconds (the
  authoritative, deterministic one) and a wall-clock nanosecond offset
  (excluded from exports by default so trace files stay byte-identical
  for a fixed seed),
* per-category tracks so the Chrome/Perfetto rendering shows kernel,
  bus, reconfiguration and firmware activity as parallel swimlanes with
  properly nested spans.

Zero overhead when off
----------------------
``sim.tracer`` is ``None`` unless tracing was requested
(``SystemConfig(tracing=True)`` or an explicit :meth:`Tracer.attach`).
Instrumentation sites all follow the pattern ``tr = self.tracer; if tr
is not None: ...`` at *lifecycle* granularity (a reconfiguration, a bus
transaction, a firmware phase), never per delta cycle, and the bus
observers are only registered when tracing is enabled — so the kernel
hot path is untouched with tracing off.  Per-delta kernel detail is instead exposed as **counter samples**
(:meth:`Tracer.sample_kernel`) read from the accounting the scheduler
already maintains (``SimStats``).

Exporters
---------
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome
  ``trace_event`` JSON, loadable in Perfetto (https://ui.perfetto.dev)
  or ``chrome://tracing``,
* :func:`counter_summary` — final counter values and per-category span
  statistics,
* :func:`repro.analysis.reporting.format_trace_timeline` — a plain-text
  nested timeline for terminals and logs.

See ``docs/tracing.md`` for the span/category reference and a Perfetto
walkthrough.
"""

from __future__ import annotations

import json
import time as _time
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TraceEvent",
    "Span",
    "Tracer",
    "to_chrome_trace",
    "write_chrome_trace",
    "counter_summary",
    "install_bus_tracing",
]

#: the single "process" all tracks live under in exported traces
TRACE_PID = 1

#: categories with reserved track ids, in display order; unknown
#: categories get the next free id deterministically at first use
BUILTIN_CATEGORIES = ("kernel", "bus", "reconfig", "firmware", "warning", "codegen")


class TraceEvent:
    """One recorded event (span, instant or counter sample)."""

    __slots__ = ("ph", "cat", "name", "ts_ps", "dur_ps", "tid", "args", "wall_ns")

    def __init__(
        self,
        ph: str,
        cat: str,
        name: str,
        ts_ps: int,
        tid: int,
        dur_ps: int = 0,
        args: Optional[dict] = None,
        wall_ns: int = 0,
    ):
        self.ph = ph  # "X" complete span | "i" instant | "C" counter
        self.cat = cat
        self.name = name
        self.ts_ps = ts_ps
        self.dur_ps = dur_ps
        self.tid = tid
        self.args = args
        self.wall_ns = wall_ns

    def __repr__(self) -> str:
        return (
            f"TraceEvent({self.ph} {self.cat}:{self.name} t={self.ts_ps}ps"
            + (f" dur={self.dur_ps}ps" if self.ph == "X" else "")
            + ")"
        )


class Span:
    """An open span; close with :meth:`end` or use as a context manager."""

    __slots__ = ("_tracer", "cat", "name", "ts_ps", "tid", "args", "wall_ns", "_open")

    def __init__(self, tracer: "Tracer", cat: str, name: str, ts_ps: int,
                 tid: int, args: Optional[dict], wall_ns: int):
        self._tracer = tracer
        self.cat = cat
        self.name = name
        self.ts_ps = ts_ps
        self.tid = tid
        self.args = args
        self.wall_ns = wall_ns
        self._open = True

    def add_args(self, **kw) -> None:
        """Attach extra args discovered while the span is running."""
        if self.args is None:
            self.args = {}
        self.args.update(kw)

    def end(self) -> None:
        if self._open:
            self._open = False
            self._tracer._end_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.end()


class _NullSpan:
    """Returned for filtered-out categories; accepts the same protocol."""

    __slots__ = ()

    def add_args(self, **kw) -> None:
        pass

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Structured trace recorder for one simulation.

    Timestamps come from the simulator it is attached to (simulated
    picoseconds) plus a wall-clock nanosecond offset taken at record
    time.  Events are kept in memory; use the exporters to serialize.

    ``categories``, when given, filters recording: events for any other
    category cost one set lookup and allocate nothing.
    """

    def __init__(self, categories: Optional[Iterable[str]] = None):
        self.sim = None
        self.events: List[TraceEvent] = []
        self._categories = frozenset(categories) if categories is not None else None
        self._tids: Dict[Tuple[str, str], int] = {}
        self._track_names: List[Tuple[int, str]] = []
        for cat in BUILTIN_CATEGORIES:
            self._tid_for(cat, "")
        # per-track open-span stacks (closed by finalize)
        self._open: Dict[int, List[Span]] = {}
        self._wall0 = _time.perf_counter_ns()

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, sim) -> "Tracer":
        """Bind to a simulator: it becomes the timestamp source."""
        self.sim = sim
        sim.tracer = self
        return self

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def enabled_for(self, category: str) -> bool:
        cats = self._categories
        return cats is None or category in cats

    def _tid_for(self, category: str, track: str = "") -> int:
        key = (category, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[key] = tid
            self._track_names.append(
                (tid, category if not track else f"{category}:{track}")
            )
        return tid

    def _now(self) -> int:
        return self.sim.time if self.sim is not None else 0

    def _wall(self) -> int:
        return _time.perf_counter_ns() - self._wall0

    def begin(self, category: str, name: str, track: str = "", **args):
        """Open a span; returns a handle (or a no-op if filtered out)."""
        if not self.enabled_for(category):
            return NULL_SPAN
        span = Span(
            self, category, name, self._now(), self._tid_for(category, track),
            args or None, self._wall(),
        )
        self._open.setdefault(span.tid, []).append(span)
        return span

    #: ``with tracer.span("reconfig", "attempt", n=1): ...``
    span = begin

    def _end_span(self, span: Span) -> None:
        stack = self._open.get(span.tid)
        if stack and span in stack:
            stack.remove(span)
        self.events.append(
            TraceEvent(
                "X", span.cat, span.name, span.ts_ps, span.tid,
                dur_ps=self._now() - span.ts_ps, args=span.args,
                wall_ns=span.wall_ns,
            )
        )

    def instant(self, category: str, name: str, track: str = "", **args) -> None:
        if not self.enabled_for(category):
            return
        self.events.append(
            TraceEvent(
                "i", category, name, self._now(),
                self._tid_for(category, track), args=args or None,
                wall_ns=self._wall(),
            )
        )

    def counter(self, category: str, name: str, **values) -> None:
        """Record a counter sample (rendered as a stacked area track)."""
        if not self.enabled_for(category):
            return
        self.events.append(
            TraceEvent(
                "C", category, name, self._now(), self._tid_for(category),
                args=values, wall_ns=self._wall(),
            )
        )

    # ------------------------------------------------------------------
    # Channel helpers (single-timestamp-source services)
    # ------------------------------------------------------------------
    def warning(self, message: str) -> None:
        """The simulator warning channel, routed through the tracer.

        Reads ``sim.time`` exactly once so the backward-compatible
        ``sim.warnings`` tuple and the trace event cannot disagree.
        """
        ts = self._now()
        if self.sim is not None:
            self.sim.warnings.append((ts, message))
        if self.enabled_for("warning"):
            self.events.append(
                TraceEvent(
                    "i", "warning", "warn", ts, self._tid_for("warning"),
                    args={"message": message}, wall_ns=self._wall(),
                )
            )

    def sample_kernel(self) -> None:
        """Emit counter samples from the scheduler's own accounting.

        Reads :class:`~repro.kernel.simulator.SimStats` — the kernel
        pays nothing extra to be sampled.
        """
        if self.sim is None or not self.enabled_for("kernel"):
            return
        stats = self.sim.stats
        self.counter(
            "kernel", "scheduler",
            resumes=stats.resumes,
            value_changes=stats.value_changes,
            deltas=stats.deltas,
            timesteps=stats.timesteps,
            silent_timesteps=stats.silent_timesteps,
        )

    # ------------------------------------------------------------------
    # Export preparation
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close any spans still open (e.g. after a timed-out run)."""
        for stack in self._open.values():
            for span in reversed(list(stack)):
                span.add_args(unterminated=True)
                span.end()

    def sorted_events(self) -> List[TraceEvent]:
        """Events in timestamp order, parents before children."""
        return sorted(
            self.events, key=lambda e: (e.ts_ps, -e.dur_ps, e.tid)
        )

    def track_names(self) -> List[Tuple[int, str]]:
        return list(self._track_names)

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self.events)} events, "
            f"{len(self._tids)} tracks"
            + (f", categories={sorted(self._categories)}"
               if self._categories is not None else "")
            + ")"
        )


# ----------------------------------------------------------------------
# Bus wiring (only installed when tracing is enabled)
# ----------------------------------------------------------------------
def install_bus_tracing(tracer: Tracer, plb=None, dcr=None) -> None:
    """Register trace observers on the interconnect.

    Observers are registered only here — a simulation without tracing
    keeps empty observer lists and the buses never pay the callback.
    """
    if plb is not None and tracer.enabled_for("bus"):

        def on_plb(txn) -> None:
            start = txn.issued_at or 0
            end = txn.completed_at if txn.completed_at is not None else start
            args = {
                "master": txn.master.name,
                "addr": txn.addr,
                "burst": txn.burst,
            }
            if txn.error:
                args["error"] = txn.error
            tracer.events.append(
                TraceEvent(
                    "X", "bus", "plb:rd" if txn.is_read else "plb:wr",
                    start, tracer._tid_for("bus", "plb"),
                    dur_ps=end - start, args=args, wall_ns=tracer._wall(),
                )
            )

        plb.add_observer(on_plb)

    if dcr is not None and tracer.enabled_for("bus"):

        def on_dcr(rec) -> None:
            args = {"addr": rec.addr, "ok": rec.ok}
            tracer.events.append(
                TraceEvent(
                    "X", "bus", "dcr:wr" if rec.write else "dcr:rd",
                    rec.start_ps, tracer._tid_for("bus", "dcr"),
                    dur_ps=rec.end_ps - rec.start_ps, args=args,
                    wall_ns=tracer._wall(),
                )
            )

        dcr.add_observer(on_dcr)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def to_chrome_trace(tracer: Tracer, include_wall: bool = False) -> dict:
    """Render the trace as a Chrome ``trace_event`` JSON object.

    The result loads in Perfetto or ``chrome://tracing``.  ``ts``/``dur``
    are microseconds of *simulated* time; the exact picosecond values
    ride along in ``args`` (``ts_ps``/``dur_ps``).  Wall-clock offsets
    are only included with ``include_wall=True`` because they make the
    output non-deterministic.
    """
    events: List[dict] = [
        {
            "ph": "M", "pid": TRACE_PID, "tid": 0,
            "name": "process_name", "args": {"name": "repro-sim"},
        }
    ]
    for tid, label in tracer.track_names():
        events.append(
            {
                "ph": "M", "pid": TRACE_PID, "tid": tid,
                "name": "thread_name", "args": {"name": label},
            }
        )
    for ev in tracer.sorted_events():
        args = dict(ev.args) if ev.args else {}
        if ev.ph != "C":
            args["ts_ps"] = ev.ts_ps
        if include_wall:
            args["wall_ns"] = ev.wall_ns
        out = {
            "ph": ev.ph,
            "pid": TRACE_PID,
            "tid": ev.tid,
            "cat": ev.cat,
            "name": ev.name,
            "ts": ev.ts_ps / 1e6,  # trace_event ts unit: microseconds
            "args": args,
        }
        if ev.ph == "X":
            out["dur"] = ev.dur_ps / 1e6
            args["dur_ps"] = ev.dur_ps
        elif ev.ph == "i":
            out["s"] = "t"  # thread-scoped instant
        events.append(out)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-ps"},
    }


def write_chrome_trace(tracer: Tracer, path, include_wall: bool = False) -> dict:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the dict.

    Serialization is canonical (sorted keys, fixed separators) so a
    fixed seed produces a byte-identical file.
    """
    doc = to_chrome_trace(tracer, include_wall=include_wall)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ": "), indent=1)
        fh.write("\n")
    return doc


def counter_summary(tracer: Tracer) -> Dict[str, dict]:
    """Aggregate the trace: per-category span stats + final counters.

    Returns ``{category: {"spans": n, "span_ps": total, "instants": n,
    "counters": {name: last_sample_dict}}}``.
    """
    out: Dict[str, dict] = {}
    for ev in tracer.sorted_events():
        entry = out.setdefault(
            ev.cat, {"spans": 0, "span_ps": 0, "instants": 0, "counters": {}}
        )
        if ev.ph == "X":
            entry["spans"] += 1
            entry["span_ps"] += ev.dur_ps
        elif ev.ph == "i":
            entry["instants"] += 1
        elif ev.ph == "C":
            entry["counters"][ev.name] = dict(ev.args or {})
    return out
