"""Full-system ISS tests: the assembly firmware drives the real DUT."""

import numpy as np
import pytest

from repro.cpu.firmware import FIRMWARE_EXIT_OK, attach_iss, build_iss_demo, optical_flow_firmware
from repro.cpu import assemble
from repro.system import AutoVisionSystem, SystemConfig
from repro.video import census_transform, match_features, unpack_pixels, unpack_vector_bytes


@pytest.fixture(scope="module")
def iss_run():
    system, iss, program = build_iss_demo()
    sim = system.build()
    frame = system.video_in.send_frame_backdoor(0, system.memory, system.memory_map.input[0])
    iss.start()
    ok = sim.run_until_event(iss.done, timeout=400_000_000_000)
    return system, iss, sim, frame, ok


def test_firmware_assembles():
    system = AutoVisionSystem(SystemConfig(width=48, height=32, simb_payload_words=128))
    program = assemble(optical_flow_firmware(system))
    assert program.size_words > 100
    assert "isr" in program.symbols and program.symbols["isr"] == 0x500


def test_firmware_runs_to_completion(iss_run):
    system, iss, sim, frame, ok = iss_run
    assert ok, "firmware did not finish"
    assert iss.halted
    assert iss.exit_code == FIRMWARE_EXIT_OK


def test_firmware_saw_two_engine_interrupts(iss_run):
    system, iss, sim, frame, ok = iss_run
    assert iss.reported == [2]
    assert iss.interrupts_taken == 2


def test_firmware_performed_two_reconfigurations(iss_run):
    system, iss, sim, frame, ok = iss_run
    portal = system.artifacts.portal("video_rr")
    assert portal.reconfigurations == 2
    assert system.slot.active is system.cie  # swapped back at the end
    assert system.icapctrl.transfers_completed == 2


def test_firmware_feature_image_matches_golden(iss_run):
    system, iss, sim, frame, ok = iss_run
    mm = system.memory_map
    h, w = system.config.height, system.config.width
    feat = unpack_pixels(system.memory.dump_words(mm.feat[0], h * w // 4))
    assert np.array_equal(feat.reshape(h, w), census_transform(frame))


def test_firmware_vectors_match_golden(iss_run):
    system, iss, sim, frame, ok = iss_run
    mm = system.memory_map
    h, w = system.config.height, system.config.width
    golden = census_transform(frame)
    gdx, gdy, gvalid = match_features(golden, golden, radius=system.config.radius)
    words = system.memory.dump_words(mm.vec[0], h * w // 4)
    dx, dy, valid = unpack_vector_bytes(words, (h, w), system.config.radius)
    assert np.array_equal(dx, gdx)
    assert np.array_equal(dy, gdy)
    assert np.array_equal(valid, gvalid)


def test_firmware_no_monitor_violations(iss_run):
    system, iss, sim, frame, ok = iss_run
    assert iss.x_reads == 0
    assert system.isolation.x_leaks == 0
    assert system.intc.x_violations == 0
    assert system.bus.protocol_errors == 0
    assert not system.artifacts.icap.framing_errors


def test_build_iss_demo_loads_the_frame_itself():
    """The firmware's camera service call loads frame 0: no caller-side
    backdoor load is needed."""
    system, iss, program = build_iss_demo()
    sim = system.build()
    iss.start()
    assert sim.run_until_event(iss.done, timeout=400_000_000_000)
    assert iss.exit_code == FIRMWARE_EXIT_OK
    mm = system.memory_map
    h, w = system.config.height, system.config.width
    feat = unpack_pixels(system.memory.dump_words(mm.feat[0], h * w // 4))
    assert np.array_equal(
        feat.reshape(h, w), census_transform(system.sequence.frame(0))
    )


def test_attach_iss_after_build_rejected():
    system = AutoVisionSystem(SystemConfig(width=48, height=32, simb_payload_words=128))
    system.build()
    with pytest.raises(RuntimeError):
        attach_iss(system)


def test_build_iss_demo_requires_resim():
    with pytest.raises(ValueError):
        build_iss_demo(SystemConfig(method="vmux", width=48, height=32))
