#!/usr/bin/env python3
"""Waveform debugging of the reconfiguration window.

The paper's whole premise is that designers need to *see* the system
immediately before, during and after reconfiguration.  This example
dumps a VCD trace (viewable in GTKWave) of the reconfiguration
machinery while a buggy driver (``dpr.1``: isolation never armed) lets
X escape into the static region — then scans the trace to point at the
first corrupted static-region signal, exactly the debugging workflow
the testbench user would follow.

Run:  python examples/waveform_debug.py [out.vcd]
"""

import sys

from repro.analysis import format_ps
from repro.kernel import VcdWriter
from repro.system import AutoVisionSoftware, AutoVisionSystem, SystemConfig


def main(vcd_path: str = "reconfig_debug.vcd"):
    config = SystemConfig(
        width=48, height=32, simb_payload_words=128,
        faults=frozenset({"dpr.1"}),
    )
    system = AutoVisionSystem(config)
    software = AutoVisionSoftware(system)
    sim = system.build()

    writer = VcdWriter(open(vcd_path, "w"))
    # trace the RR boundary, the isolation outputs and the ICAP stream
    writer.trace(
        system.slot.out_done, system.slot.out_busy, system.slot.out_io,
        scope="autovision.rr0",
    )
    writer.trace(
        system.isolation.out_done, system.isolation.out_io,
        scope="autovision.isolation",
    )
    writer.trace(system.artifacts.icap.sig_data, scope="autovision.icap")
    writer.trace(system.intc.irq, scope="autovision.intc")
    sim.attach_vcd(writer)

    sim.fork(software.run(1), "software", owner=software)
    sim.run_until_event(software.run_complete, timeout=400_000_000)
    sim.close()

    print(f"wrote {vcd_path} ({writer.changes_recorded} value changes)")
    print(f"isolation X leaks : {system.isolation.x_leaks}")
    print(f"INTC X violations : {system.intc.x_violations}")

    # scan the trace for the first X on a static-side signal
    first_x = None
    time = 0
    for line in open(vcd_path):
        line = line.strip()
        if line.startswith("#"):
            time = int(line[1:])
        elif line and line[0] in "bx01z" and ("x" in line.split()[0]):
            first_x = (time, line)
            break
    if first_x:
        t, change = first_x
        print(f"first X in the trace at t={format_ps(t)}: {change!r}")
        print("-> open the VCD in GTKWave and look at the isolation "
              "outputs around that time: the region was reconfiguring "
              "and isolation was never armed (bug dpr.1)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "reconfig_debug.vcd")
