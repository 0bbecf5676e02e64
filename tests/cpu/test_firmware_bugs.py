"""Buggy-firmware variants on the ISS agree with the HAL campaign.

DESIGN.md decision 5: the same driver logic exists at two fidelity
levels (Python HAL and PPC-lite assembly); injected software bugs must
produce the same verdicts.  These tests run the assembly driver with
the Table III software bugs compiled in and check the ISS-level
simulation exposes them the same way ReSim+HAL does.
"""

import pytest

from repro.cpu import assemble
from repro.cpu.firmware import (
    SVC_FRAME_DONE,
    SVC_LOAD_FRAME,
    attach_iss,
    build_iss_demo,
    optical_flow_firmware,
)
from repro.system import AutoVisionSystem, SystemConfig

# a clean single-frame run finishes in ~60 us simulated; 2 ms is a
# generous hang threshold that keeps the negative tests fast
TIMEOUT_PS = 2_000_000_000


def run_fw(firmware_faults=frozenset(), cfg_mhz=50.0):
    config = SystemConfig(
        width=48, height=32, simb_payload_words=128, cfg_mhz=cfg_mhz
    )
    system, iss, program = build_iss_demo(config, firmware_faults)
    sim = system.build()
    system.video_in.send_frame_backdoor(0, system.memory, system.memory_map.input[0])
    iss.start()
    finished = sim.run_until_event(iss.done, timeout=TIMEOUT_PS)
    return system, iss, finished


def test_clean_firmware_baseline():
    system, iss, finished = run_fw()
    assert finished and iss.exit_code == 0
    assert system.slot.lost_start_pulses == 0
    assert system.slot.lost_reset_pulses == 0


def test_dpr5_firmware_hangs_with_truncated_transfer():
    """BSIZE in words: the truncated SimB never swaps; the firmware
    waits forever for an engine that is not there."""
    system, iss, finished = run_fw(frozenset({"dpr.5"}))
    assert not finished  # the ISS never reaches exit
    assert system.artifacts.portal("video_rr").reconfigurations == 0
    # the region is stuck mid-reconfiguration with injection active
    assert system.artifacts.injector("video_rr").active
    # and the start/reset pulses for the ME vanished
    assert system.slot.lost_reset_pulses + system.slot.lost_start_pulses >= 1


def test_dpr5_firmware_hangs_on_the_first_of_two_frames():
    """Faults compile into the frame loop too: a two-frame program with
    BSIZE in words never gets past the first reconfiguration."""
    system = AutoVisionSystem(
        SystemConfig(width=48, height=32, simb_payload_words=128)
    )
    iss = attach_iss(system)
    iss.load(assemble(optical_flow_firmware(system, 2, faults={"dpr.5"})))
    iss.services[SVC_LOAD_FRAME] = lambda cpu: system.video_in.send_frame_backdoor(
        cpu._get(3), system.memory, system.memory_map.input[0]
    )
    iss.services[SVC_FRAME_DONE] = lambda cpu: None
    sim = system.build()
    iss.start()
    assert not sim.run_until_event(iss.done, timeout=TIMEOUT_PS)
    assert system.artifacts.portal("video_rr").reconfigurations == 0


def test_dpr6b_firmware_resets_too_early_on_slow_cfg_clock():
    system, iss, finished = run_fw(frozenset({"dpr.6b"}), cfg_mhz=50.0)
    assert not finished
    assert system.slot.lost_reset_pulses + system.slot.lost_start_pulses >= 1


def test_dpr6b_firmware_masked_by_fast_cfg_clock():
    """On the original clocking scheme the dummy loop was long enough."""
    system, iss, finished = run_fw(frozenset({"dpr.6b"}), cfg_mhz=100.0)
    assert finished and iss.exit_code == 0
    assert system.artifacts.portal("video_rr").reconfigurations == 2


def test_unknown_firmware_fault_rejected():
    system = AutoVisionSystem(
        SystemConfig(width=48, height=32, simb_payload_words=128)
    )
    with pytest.raises(ValueError):
        optical_flow_firmware(system, faults={"hw.s1"})


def test_iss_and_hal_verdicts_agree():
    """Same bug, two software fidelity levels, same verdict."""
    from repro.verif import run_system

    for key in ("dpr.5", "dpr.6b"):
        hal = run_system(
            SystemConfig(
                width=48, height=32, simb_payload_words=128,
                faults=frozenset({key}),
            ),
            n_frames=1,
        )
        _, _, iss_finished = run_fw(frozenset({key}))
        assert hal.detected == (not iss_finished), key
