"""Set-up probe: a fresh process from ``import`` to the first simulated timestep.

Run as ``python3 perfbench/probe.py <src-dir> <workload> <seed>``.  It
imports the simulator (through the benchmark's workload table, which
imports ``repro.verif`` as every workload does), builds and elaborates
the workload's first system (the campaign's first run is its VMux
baseline), compiles the scheduler driver on the codegen backend, runs
the first timestep, then prints one JSON line with the time each step
took and exits.  The parent times the whole process from spawn to that
line, so interpreter start-up is included and the artifact cache is
always cold.
"""

import json
import sys
from dataclasses import replace
from time import perf_counter


def main(src: str, workload: str, seed: int) -> None:
    t0 = perf_counter()
    sys.path.insert(0, src)
    from workloads import N_FRAMES, WORKLOADS

    from repro.system.autovision import AutoVisionSystem
    from repro.system.software import AutoVisionSoftware
    from repro.verif import SystemScoreboard

    t_import = perf_counter()
    spec = WORKLOADS[workload]
    config = spec.config(seed)
    if spec.campaign:
        config = replace(config, method="vmux")
    system = AutoVisionSystem(config)
    software = AutoVisionSoftware(system)
    sim = system.build()
    SystemScoreboard(system, software).start(sim)
    t_build = perf_counter()
    t_compile = t_build
    if sim._backend is not None:
        sim._backend._compiled()
        t_compile = perf_counter()
    sim.fork(software.run(N_FRAMES), "software.main", owner=software)
    sim.run_until_event(software.run_complete, timeout=1)
    t_step = perf_counter()
    if sim.stats.timesteps < 1 or sim.stats.resumes < 1:
        raise SystemExit("probe: the first timestep ran no process")
    print(
        json.dumps(
            {
                "import_s": t_import - t0,
                "build_s": t_build - t_import,
                "compile_s": t_compile - t_build,
                "step_s": t_step - t_compile,
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
