"""End-to-end and per-layer benchmark of the reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload frame --seed 1 --seconds 15 --trace 0

``--trace 0`` times complete iterations of the workload back to back
(closed loop, one caller) for ``--seconds`` and reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics from one untraced
iteration (counts), one iteration under ``cProfile`` (self time per
layer) and a Table II phase split.  Every iteration's output is checked;
a failed check counts against ``failed``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and what each layer metric should move
are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
from time import perf_counter

import layers
from hostspeed import NOMINAL_S, HostSpeed, normalise

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh-process set-up probes per run (median reported)
SETUP_PROBES = {0: 7, 1: 3}
#: share of ``--seconds`` the traced run spends on untraced iterations
UNTRACED_SHARE = 0.3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload: str, seed: int, n: int, tally, speed):
    """Time ``n`` fresh processes from spawn to their first timestep.

    Returns ``(set-up seconds, compile seconds)`` per successful probe;
    set-up is scaled to the reference host (see ``hostspeed``).
    """
    walls, compiles = [], []
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), SRC, workload, str(seed)]
    for i in range(n):
        before = speed.probe()
        t0 = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            # a probe that hangs before its line must not hang the run
            if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                raise subprocess.TimeoutExpired(cmd, PROBE_TIMEOUT_S)
            line = proc.stdout.readline()
            wall = perf_counter() - t0
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            tally.record(f"setup probe {i}", ["timed out"])
            continue
        if proc.returncode != 0 or not line.strip():
            tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            tally.record(f"setup probe {i}", tail)
            continue
        tally.record(f"setup probe {i}", [])
        walls.append(normalise(wall, before, speed.probe()))
        compiles.append(json.loads(line)["compile_s"])
    return walls, compiles


def check_sample(sample, first, reference):
    """Problems of one iteration: its own checks plus fingerprint repeats."""
    problems = list(sample.problems)
    if not sample.fingerprint:
        return problems
    if first is not None:
        diff = layers.fingerprint_diff(first, sample.fingerprint)
        if diff:
            problems.append("fingerprint changed between iterations: " + ", ".join(diff[:5]))
    if reference is not None:
        diff = layers.fingerprint_diff(
            reference, sample.fingerprint, ignore=layers.BACKEND_FREE_KEYS
        )
        if diff:
            problems.append("differs from the interp run: " + ", ".join(diff[:5]))
    return problems


def measure(workload, seed, seconds, tally, reference, speed, label="iteration"):
    """Run iterations back to back until ``seconds`` have passed (at least one)."""
    samples = []
    first = None
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        sample = workloads.run_once(workload, seed, speed)
        tally.record(f"{label} {len(samples)}", check_sample(sample, first, reference))
        if first is None and sample.fingerprint:
            first = sample.fingerprint
        samples.append(sample)
    return samples


def parity_reference(workload, seed, tally, speed):
    """Fingerprint of the interp workload this one must reproduce, if any."""
    if workload.parity_with is None:
        return None
    sample = workloads.run_once(workloads.WORKLOADS[workload.parity_with], seed, speed)
    tally.record(f"{workload.parity_with} reference run", sample.problems)
    return sample.fingerprint or None


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return max(own, children) / scale


def end_to_end(workload, seed, seconds, tally, speed):
    setup, _ = probe_setup(workload.name, seed, SETUP_PROBES[0], tally, speed)
    reference = parity_reference(workload, seed, tally, speed)
    samples = measure(workload, seed, seconds, tally, reference, speed)
    median = statistics.median
    values = {
        "wall_s": median([s.wall_s for s in samples]),
        "events_per_s": median([s.events / s.wall_s for s in samples]),
        "sim_us_per_s": median([s.sim_ps / 1e6 / s.wall_s for s in samples]),
        "runs_per_s": median([s.runs / s.wall_s for s in samples]),
        "setup_s": median(setup) if setup else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    walls = sorted(s.wall_s for s in samples)
    raw = [s.raw_wall_s for s in samples]
    notes = [
        f"iterations {len(samples)}: wall_s min {walls[0]:.4f} max {walls[-1]:.4f}; "
        f"unscaled wall median {median(raw):.4f} s",
        f"setup probes {len(setup)}; host-speed probe median "
        f"{median(speed.probes):.4f} s per walk (reference {NOMINAL_S} s)",
    ]
    return values, layers.END_TO_END, notes


def per_layer(workload, seed, seconds, tally, speed):
    _, compiles = probe_setup(workload.name, seed, SETUP_PROBES[1], tally, speed)
    reference = parity_reference(workload, seed, tally, speed)
    untraced = measure(
        workload, seed, seconds * UNTRACED_SHARE, tally, reference, speed,
        "untraced iteration",
    )
    base = untraced[0]
    traced, layer = workloads.run_traced(workload, seed, speed)
    tally.record("traced iteration", check_sample(traced, base.fingerprint or None, None))

    values = {name: 0 for name, _ in layers.PER_LAYER}
    values.update(base.counts)
    values.update(layer)
    values["kernel.codegen.compile_s"] = statistics.median(compiles) if compiles else 0.0
    values["kernel.codegen.bail_rate"] = layers.ratio(
        values["kernel.codegen.bails"], values["kernel.codegen.driver_calls"]
    )
    hits, misses = values["exec.cache_hits"], values["exec.cache_misses"]
    values["exec.cache_hit_rate"] = layers.ratio(hits, hits + misses)
    untraced_wall = statistics.median([s.wall_s for s in untraced])
    values["trace.wall_s"] = traced.raw_wall_s
    values["trace.overhead_s"] = traced.wall_s - untraced_wall

    # stamp the traced run with the backend that really executed
    ran_codegen = (
        values["kernel.codegen.driver_calls"] > 0
        and traced.counts.get("kernel.codegen.bail.vcd-or-tracer", 0) == 0
    )
    stamp = "codegen" if ran_codegen else "interp"
    if workload.backend == "codegen" and not ran_codegen:
        tally.record("traced backend", ["the compiled driver did not run; codegen time refused"])
        values["kernel.codegen.self_s"] = 0.0
        values["kernel.codegen.compile_s"] = 0.0

    notes = [f"traced backend {stamp}", f"untraced iterations {len(untraced)}"]
    if not workload.campaign and base.fingerprint:
        phases, fingerprint, problems = workloads.phase_split(
            workload, seed, guard_ps=4 * base.sim_ps
        )
        diff = layers.fingerprint_diff(
            base.fingerprint, fingerprint, ignore=layers.BACKEND_FREE_KEYS
        )
        if diff:
            problems.append("phase split changed the simulation: " + ", ".join(diff[:5]))
        tally.record("phase split", problems)
        for phase, acc in phases.items():
            for key, value in acc.items():
                values[f"phase.{phase}.{key}"] = value
        density = {
            p: layers.ratio(phases[p]["events"], phases[p]["sim_us"]) for p in ("cie", "me")
        }
        values["phase.cie_me_density_ratio"] = layers.ratio(density["cie"], density["me"])
        holds = "holds" if density["cie"] > density["me"] else "does NOT hold"
        notes.append(
            f"Table II shape (CIE events/sim-us {density['cie']:.1f} > "
            f"ME {density['me']:.1f}): {holds}"
        )
    return values, layers.PER_LAYER, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    global workloads
    import workloads

    if not workloads.PACKAGE_DIR.startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {workloads.PACKAGE_DIR}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2

    tally = layers.Tally()
    measure_fn = per_layer if args.trace else end_to_end
    values, units, notes = measure_fn(workload, args.seed, args.seconds, tally, HostSpeed())

    print(f"perfbench {workload.name}: seed {args.seed}, trace {args.trace}, "
          f"backend {workload.backend}" + (f", jobs {workloads.fleet_jobs()}" if workload.campaign else ""))
    for note in notes:
        print(f"  {note}")
    for name, unit in units:
        print(f"  {name:40s} {values[name]!r:>24} {unit}")
    print(f"  {'failed_frac':40s} {tally.failed_frac!r:>24} ratio "
          f"({tally.failed}/{tally.attempted})")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
