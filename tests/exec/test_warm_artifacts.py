"""Every run builds its own artifacts, isolated from other runs.

Runs corrupt bitstreams in main memory; the next system built must
still see a pristine image, and SimB lists handed to callers must not
share storage.
"""

import numpy as np

from repro.system.autovision import AutoVisionSystem, SystemConfig

_CFG = SystemConfig(width=48, height=32, simb_payload_words=128)


def test_cached_memory_image_survives_in_run_corruption():
    first = AutoVisionSystem(_CFG)
    first.build()
    me_base = first.bitstream_base(first.me.ENGINE_ID)
    pristine = int(first.memory.dump_words(me_base, 1)[0])
    # simulate what a bug run does: trash the bitstream in main memory
    first.memory.load_words(
        me_base, np.array([pristine ^ 0xFFFFFFFF], dtype=np.uint32)
    )
    # a fresh system must see pristine data
    second = AutoVisionSystem(_CFG)
    second.build()
    assert int(second.memory.dump_words(me_base, 1)[0]) == pristine


def test_simb_lists_are_independent_copies():
    system = AutoVisionSystem(_CFG)
    system.build()
    a = system.artifacts.simb_for("video_rr", system.me.ENGINE_ID, 64)
    b = system.artifacts.simb_for("video_rr", system.me.ENGINE_ID, 64)
    assert a == b and a is not b
    a[0] ^= 0xFF  # mutating one caller's copy ...
    c = system.artifacts.simb_for("video_rr", system.me.ENGINE_ID, 64)
    assert c == b  # ... never reaches the next caller's
