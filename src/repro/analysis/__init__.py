"""Measurement and reporting: the numbers behind the paper's evaluation.

* :mod:`~repro.analysis.benchkit` — kernel-throughput workloads and the
  BENCH_kernel.json regression baseline (``repro bench``),
* :mod:`~repro.analysis.profiling` — per-phase simulated/elapsed-time
  accounting (Table II) and simulation-overhead attribution (§V),
* :mod:`~repro.analysis.reporting` — dependency-free table/series
  rendering for the benchmark harness,
* :mod:`~repro.analysis.timeline` — the development-workload model that
  regenerates Figure 5 from this repository's own component inventory
  and the live bug campaign,
* :mod:`~repro.analysis.tracing` — the structured trace substrate
  (spans, instants, counters) every layer emits into, with Chrome
  ``trace_event`` export (``repro trace``).
"""

from . import benchkit
from .tracing import (
    Tracer,
    TraceEvent,
    counter_summary,
    install_bus_tracing,
    to_chrome_trace,
    write_chrome_trace,
)
from .profiling import (
    FrameProfile,
    OverheadProfile,
    PhaseStats,
    measure_artifact_overhead,
    profile_one_frame,
)
from .reporting import format_ps, format_table, format_trace_timeline, Series
from .timeline import DevelopmentTimeline, build_timeline
from .vcdscan import VcdParseError, VcdScan

__all__ = [
    "benchkit",
    "FrameProfile",
    "OverheadProfile",
    "PhaseStats",
    "measure_artifact_overhead",
    "profile_one_frame",
    "format_ps",
    "format_table",
    "format_trace_timeline",
    "Series",
    "Tracer",
    "TraceEvent",
    "counter_summary",
    "install_bus_tracing",
    "to_chrome_trace",
    "write_chrome_trace",
    "DevelopmentTimeline",
    "build_timeline",
    "VcdParseError",
    "VcdScan",
]
