"""Measurement and reporting: the numbers behind the paper's evaluation.

* :mod:`~repro.analysis.profiling` — per-phase simulated/elapsed-time
  accounting (Table II) and simulation-overhead attribution (§V),
* :mod:`~repro.analysis.reporting` — dependency-free table and
  trace-timeline rendering for the benchmark harness,
* :mod:`~repro.analysis.timeline` — the development-workload model that
  regenerates Figure 5 from this repository's own component inventory
  and the live bug campaign,
* :mod:`~repro.analysis.tracing` — the structured trace substrate
  (spans, instants, counters) every layer emits into, with Chrome
  ``trace_event`` export (``repro trace``).

Waveforms are written by :class:`repro.kernel.VcdWriter` and read in a
viewer such as GTKWave; ``examples/waveform_debug.py`` shows a scan for
the first X in a dump.
"""

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
from .reporting import format_ps, format_table, format_trace_timeline
from .timeline import DevelopmentTimeline, build_timeline

__all__ = [
    "FrameProfile",
    "OverheadProfile",
    "PhaseStats",
    "measure_artifact_overhead",
    "profile_one_frame",
    "format_ps",
    "format_table",
    "format_trace_timeline",
    "Tracer",
    "TraceEvent",
    "counter_summary",
    "install_bus_tracing",
    "to_chrome_trace",
    "write_chrome_trace",
    "DevelopmentTimeline",
    "build_timeline",
]
