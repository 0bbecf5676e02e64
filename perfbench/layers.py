"""Pure bookkeeping of the benchmark: layer roll-ups, fingerprints, tallies.

Nothing here imports ``repro`` or reads a clock, so every function can be
tested with injected counts and timings.

Layers are named after the ``src/repro`` packages (see ``LAYER_OF``):

* ``kernel`` — simulator, events, signal, logic, clock;
* ``kernel.codegen`` — the compiled scheduler driver and the code it
  generates at run time (``<codegen-driver-*>``, ``<comb:*>``,
  ``<segment:*>``);
* ``bus``, ``engines``, ``video``, ``verif``, ``exec`` — one package each;
* ``reconfig`` — ``reconfig`` plus ``core`` (the ReSim library API) and
  ``vmux`` (the baseline wrappers);
* ``system`` — ``system`` plus ``cpu``;
* ``other`` — everything else (the standard library, NumPy, the
  benchmark itself) that no layer above called.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: package directly under ``repro`` -> layer
LAYER_OF: Dict[str, str] = {
    "kernel": "kernel",
    "bus": "bus",
    "engines": "engines",
    "reconfig": "reconfig",
    "core": "reconfig",
    "vmux": "reconfig",
    "system": "system",
    "cpu": "system",
    "video": "video",
    "verif": "verif",
    "exec": "exec",
}

#: every layer a roll-up can produce, in report order
LAYERS: Tuple[str, ...] = (
    "kernel",
    "kernel.codegen",
    "bus",
    "engines",
    "reconfig",
    "system",
    "video",
    "verif",
    "exec",
    "other",
)

#: Table II phases, in the paper's order
PHASES: Tuple[str, ...] = ("cie", "me", "isr_draw", "dpr")

#: filename prefixes of the code the codegen backend compiles at run time
GENERATED_CODE_PREFIXES: Tuple[str, ...] = ("<codegen-driver-", "<comb:", "<segment:")


#: stats the observational-identity contract lets backends disagree on
#: (the phase split, which stops at quantum edges, also moves them)
BACKEND_FREE_KEYS = frozenset({"kernel.deltas", "kernel.timesteps"})

#: (name, unit) of every metric an untraced run reports
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("sim_us_per_s", "us/s"),
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every metric a traced run reports; 0 where a layer
#: does not take part in the workload
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("kernel.events", "count"),
    ("kernel.resumes", "count"),
    ("kernel.value_changes", "count"),
    ("kernel.deltas", "count"),
    ("kernel.timesteps", "count"),
    ("kernel.self_s", "s"),
    ("kernel.codegen.driver_calls", "count"),
    ("kernel.codegen.bails", "count"),
    ("kernel.codegen.bail.clock-simultaneous", "count"),
    ("kernel.codegen.bail.timer-simultaneous", "count"),
    ("kernel.codegen.bail_rate", "ratio"),
    ("kernel.codegen.refuses", "count"),
    ("kernel.codegen.segments_installed", "count"),
    ("kernel.codegen.deopts", "count"),
    ("kernel.codegen.self_s", "s"),
    ("kernel.codegen.compile_s", "s"),
    ("bus.resumes", "count"),
    ("bus.value_changes", "count"),
    ("bus.plb_beats", "count"),
    ("bus.intc_scans", "count"),
    ("bus.self_s", "s"),
    ("engines.resumes", "count"),
    ("engines.value_changes", "count"),
    ("engines.rows", "count"),
    ("engines.self_s", "s"),
    ("reconfig.resumes", "count"),
    ("reconfig.simb_words", "count"),
    ("reconfig.dpr_sim_us", "us"),
    ("reconfig.self_s", "s"),
    ("system.resumes", "count"),
    ("system.self_s", "s"),
    ("video.self_s", "s"),
    ("verif.checks", "count"),
    ("verif.self_s", "s"),
    ("exec.tasks", "count"),
    ("exec.retries", "count"),
    ("exec.worker_crashes", "count"),
    ("exec.cache_hits", "count"),
    ("exec.cache_misses", "count"),
    ("exec.cache_hit_rate", "ratio"),
    ("exec.task_busy_s", "s"),
    ("exec.worker_wait_s", "s"),
    ("exec.self_s", "s"),
    ("other.self_s", "s"),
) + tuple(
    (f"phase.{p}.{m}", unit)
    for p in PHASES
    for m, unit in (("wall_s", "s"), ("events", "count"), ("sim_us", "us"))
) + (
    ("phase.cie_me_density_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


# ----------------------------------------------------------------------
# Layer lookup
# ----------------------------------------------------------------------
def package_layer(parts: Sequence[str]) -> str:
    """Layer of a module path given as components below ``repro``.

    ``("kernel", "codegen", "emitter")`` -> ``"kernel.codegen"``;
    ``("bus", "plb")`` -> ``"bus"``; a top-level module such as
    ``("cli",)`` or an unknown package -> ``"other"``.
    """
    if len(parts) < 2:
        return "other"
    if parts[0] == "kernel" and parts[1] == "codegen":
        return "kernel.codegen"
    return LAYER_OF.get(parts[0], "other")


def module_layer(module_name: str) -> str:
    """Layer of a dotted module name (``type(owner).__module__``)."""
    parts = module_name.split(".")
    if parts[0] != "repro":
        return "other"
    return package_layer(parts[1:])


def file_layer(filename: str, package_dir: str) -> Optional[str]:
    """Layer of a code file, or ``None`` when it is not ``repro`` code.

    ``package_dir`` is the directory of the ``repro`` package being
    measured; files below it map by package, generated code maps to
    ``kernel.codegen``, anything else returns ``None``.
    """
    if filename.startswith(GENERATED_CODE_PREFIXES):
        return "kernel.codegen"
    root = os.path.normcase(os.path.abspath(package_dir)) + os.sep
    path = os.path.normcase(os.path.abspath(filename))
    if not path.startswith(root):
        return None
    rel = os.path.splitext(path[len(root):])[0]
    return package_layer(rel.split(os.sep))


# ----------------------------------------------------------------------
# Count roll-ups
# ----------------------------------------------------------------------
def rollup_by_owner(by_owner: Mapping[object, int]) -> Dict[str, int]:
    """Sum a ``SimStats.*_by_owner`` map by each owner's layer."""
    out = {layer: 0 for layer in LAYERS}
    for owner, count in by_owner.items():
        out[module_layer(type(owner).__module__)] += count
    return out


def codegen_counts(event_counts: Mapping[Tuple[str, str], int]) -> Dict[str, int]:
    """Summarise the backend's ``(kind, reason)`` counter map."""
    def total(kind: str) -> int:
        return sum(n for (k, _), n in event_counts.items() if k == kind)

    return {
        "bails": total("bail"),
        "bail.clock-simultaneous": event_counts.get(("bail", "clock-simultaneous"), 0),
        "bail.timer-simultaneous": event_counts.get(("bail", "timer-simultaneous"), 0),
        "bail.vcd-or-tracer": event_counts.get(("bail", "vcd-or-tracer"), 0),
        "refuses": total("refuse"),
        "segments_installed": total("install"),
        "deopts": total("deopt"),
    }


# ----------------------------------------------------------------------
# Self-time roll-up of a cProfile run
# ----------------------------------------------------------------------
#: pstats key: (filename, line, function name)
FuncKey = Tuple[str, int, str]


def rollup_self_time(
    stats: Mapping[FuncKey, tuple], package_dir: str
) -> Dict[str, float]:
    """Per-layer self time, in seconds, from ``pstats.Stats.stats``.

    ``stats`` maps a function key to ``(cc, nc, tt, ct, callers)`` with
    ``callers`` mapping caller key -> ``(cc, nc, tt, ct)`` for that edge.
    A ``repro`` function's own time (``tt``) goes to its layer.  Time in
    code of no layer (builtins, the standard library, NumPy) goes to the
    layers that called it, split by the time spent on each calling edge
    (by call counts when no edge took measurable time), so a ``repro``
    function's calls into C count as its layer's time.  Chains and
    cycles of such code are followed back to a layer; time no layer
    called goes to ``other``.
    """
    own = {key: file_layer(key[0], package_dir) for key in stats}
    # each unattributed function: [(caller, weight)] with weights summing to 1
    edges: Dict[FuncKey, List[Tuple[FuncKey, float]]] = {}
    for key, entry in stats.items():
        if own[key] is not None:
            continue
        callers = list(entry[4].items())
        weights = [e[2] for _, e in callers]
        if not any(weights):
            weights = [e[1] for _, e in callers]
        total = float(sum(weights))
        edges[key] = [
            (caller, w / total) for (caller, _), w in zip(callers, weights) if w
        ] if total else []

    # shares[key]: fraction of key's time owed to each layer, solved by
    # fixed-point iteration (cycles converge because every cycle that
    # leaks time leaks it towards a caller outside the cycle)
    shares: Dict[FuncKey, Dict[str, float]] = {key: {} for key in edges}
    for _ in range(200):
        moved = 0.0
        for key, callers in edges.items():
            new: Dict[str, float] = {} if callers else {"other": 1.0}
            for caller, w in callers:
                layer = own.get(caller, "other")
                source = {layer: 1.0} if layer is not None else shares[caller]
                for lay, frac in source.items():
                    new[lay] = new.get(lay, 0.0) + w * frac
            old = shares[key]
            moved = max(moved, max((abs(new.get(k, 0.0) - old.get(k, 0.0))
                                    for k in set(new) | set(old)), default=0.0))
            shares[key] = new
        if moved < 1e-12:
            break

    seconds = {layer: 0.0 for layer in LAYERS}
    for key, (_cc, _nc, tt, _ct, _callers) in stats.items():
        layer = own[key]
        if layer is not None:
            seconds[layer] += tt
            continue
        attributed = 0.0
        for lay, frac in shares[key].items():
            seconds[lay] += tt * frac
            attributed += frac
        # a closed cycle nothing outside ever called
        seconds["other"] += tt * max(0.0, 1.0 - attributed)
    return seconds


def calls_of(stats: Mapping[FuncKey, tuple], function: str, file_suffix: str) -> int:
    """Calls of one function (``nc``), summed over the files that match.

    ``file_suffix`` is a path tail such as ``"bus/interrupts.py"``
    (either separator) or a generated-code prefix such as
    ``"<codegen-driver-"``.
    """
    tail = file_suffix.replace("/", os.sep)
    n = 0
    for (filename, _line, name), entry in stats.items():
        if name != function:
            continue
        if filename.endswith(tail) or filename.startswith(file_suffix):
            n += entry[1]
    return n


# ----------------------------------------------------------------------
# Fingerprints and correctness tallies
# ----------------------------------------------------------------------
def fingerprint_diff(
    reference: Mapping[str, int],
    observed: Mapping[str, int],
    ignore: Iterable[str] = (),
) -> List[str]:
    """Keys whose values differ between two simulated fingerprints."""
    skip = set(ignore)
    keys = (set(reference) | set(observed)) - skip
    return sorted(k for k in keys if reference.get(k) != observed.get(k))


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, label: str, problems: Sequence[str]) -> None:
        """Count one operation; it fails when ``problems`` is not empty."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0
