#!/usr/bin/env python3
"""Full-system simulation: assembly firmware on the PPC-lite ISS.

The paper's testbench runs the real control software on a PowerPC
instruction-set simulator so hardware and software are verified
*together*.  This example does the same one level down: the control
program — written in PPC-lite assembly (see
``repro.cpu.firmware.optical_flow_firmware``) — runs on the ISS,
programs the engines over the DCR daisy chain, sleeps in ``wait`` until
the engine-done ISR fires, and drives the real IcapCTRL through two
reconfigurations, while the RTL below it is simulated cycle by cycle.

Run:  python examples/iss_firmware_demo.py
"""

import numpy as np

from repro.analysis import format_ps
from repro.cpu import disassemble
from repro.cpu.firmware import build_iss_demo
from repro.video import census_transform, unpack_pixels


def main():
    system, iss, program = build_iss_demo()
    print(
        f"firmware: {program.size_words} words, "
        f"{len(program.symbols)} symbols"
    )
    print("first instructions:")
    for line in disassemble(program.words[:4], base_addr=0):
        print("   ", line)
    print("    ...")

    sim = system.build()
    iss.start()  # the firmware's camera service call loads frame 0
    ok = sim.run_until_event(iss.done, timeout=400_000_000_000)
    assert ok, "firmware did not finish"

    print(f"\nsimulated time        : {format_ps(sim.time)}")
    print(f"instructions retired  : {iss.instructions_retired:,}")
    print(f"interrupts taken      : {iss.interrupts_taken}")
    print(f"exit code             : {iss.exit_code}")
    print(f"reconfigurations      : "
          f"{system.artifacts.portal('video_rr').reconfigurations}")
    print(f"active module         : {system.slot.active.name}")

    # check the hardware's output against the golden model
    mm = system.memory_map
    h, w = system.config.height, system.config.width
    feat = unpack_pixels(system.memory.dump_words(mm.feat[0], h * w // 4))
    golden = census_transform(system.sequence.frame(0))
    match = np.array_equal(feat.reshape(h, w), golden)
    print(f"feature image golden  : {'MATCH' if match else 'MISMATCH'}")
    assert match


if __name__ == "__main__":
    main()
