"""Multi-frame assembly firmware: the full pipelined flow on the ISS."""

import numpy as np
import pytest

from repro.cpu import assemble
from repro.cpu.firmware import (
    SVC_FRAME_DONE,
    SVC_LOAD_FRAME,
    attach_iss,
    optical_flow_firmware,
)
from repro.system import AutoVisionSystem, SystemConfig
from repro.video import census_transform, match_features, unpack_pixels, unpack_vector_bytes

N_FRAMES = 3


@pytest.fixture(scope="module")
def multiframe_run():
    config = SystemConfig(width=48, height=32, simb_payload_words=128)
    system = AutoVisionSystem(config)
    iss = attach_iss(system)
    program = assemble(optical_flow_firmware(system, N_FRAMES))
    iss.load(program)
    sim = system.build()
    mm = system.memory_map
    h, w = config.height, config.width
    frame_checks = []

    def load_frame(iss):
        f = iss._get(3)
        system.video_in.send_frame_backdoor(f, system.memory, mm.input[0])

    def frame_done(iss):
        f = iss._get(3)
        # check the buffers NOW, before the firmware recycles them
        feat_base = mm.feat[f % 2]
        vec_base = mm.vec[f % 2]
        golden_curr = census_transform(system.sequence.frame(f))
        golden_prev = census_transform(system.sequence.frame(max(f - 1, 0)))
        feat = unpack_pixels(
            system.memory.dump_words(feat_base, h * w // 4)
        ).reshape(h, w)
        gdx, gdy, gvalid = match_features(golden_prev, golden_curr, radius=2)
        dx, dy, valid = unpack_vector_bytes(
            system.memory.dump_words(vec_base, h * w // 4), (h, w), 2
        )
        frame_checks.append(
            dict(
                frame=f,
                feat_ok=bool(np.array_equal(feat, golden_curr)),
                vec_ok=bool(
                    np.array_equal(dx, gdx)
                    and np.array_equal(dy, gdy)
                    and np.array_equal(valid, gvalid)
                ),
            )
        )

    iss.services[SVC_LOAD_FRAME] = load_frame
    iss.services[SVC_FRAME_DONE] = frame_done
    iss.start()
    finished = sim.run_until_event(iss.done, timeout=8_000_000_000)
    return system, iss, frame_checks, finished


def test_firmware_completes_all_frames(multiframe_run):
    system, iss, checks, finished = multiframe_run
    assert finished and iss.exit_code == 0
    assert len(checks) == N_FRAMES


def test_two_interrupts_per_frame(multiframe_run):
    system, iss, checks, finished = multiframe_run
    assert iss.reported == [2 * N_FRAMES]
    assert iss.interrupts_taken == 2 * N_FRAMES


def test_two_reconfigurations_per_frame(multiframe_run):
    system, iss, checks, finished = multiframe_run
    portal = system.artifacts.portal("video_rr")
    assert portal.reconfigurations == 2 * N_FRAMES


def test_every_frame_matches_golden(multiframe_run):
    system, iss, checks, finished = multiframe_run
    for c in checks:
        assert c["feat_ok"], f"frame {c['frame']}: feature image mismatch"
        assert c["vec_ok"], f"frame {c['frame']}: motion vectors mismatch"


def test_ping_pong_alternates(multiframe_run):
    """Frames 1+ match against the *previous* frame, proving the
    ping-pong rotation in assembly works."""
    system, iss, checks, finished = multiframe_run
    assert [c["frame"] for c in checks] == list(range(N_FRAMES))


def test_no_monitor_violations(multiframe_run):
    system, iss, checks, finished = multiframe_run
    assert iss.x_reads == 0
    assert system.isolation.x_leaks == 0
    assert system.slot.lost_start_pulses == 0


def test_firmware_rejects_zero_frames():
    system = AutoVisionSystem(
        SystemConfig(width=48, height=32, simb_payload_words=128)
    )
    with pytest.raises(ValueError):
        optical_flow_firmware(system, 0)
