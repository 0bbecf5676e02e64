"""Tests for synthetic frame generation."""

import numpy as np
import pytest

from repro.video import FrameSequence, SceneConfig


def test_frames_are_deterministic():
    a = FrameSequence(SceneConfig(seed=7))
    b = FrameSequence(SceneConfig(seed=7))
    assert np.array_equal(a.frame(3), b.frame(3))


def test_different_seeds_differ():
    a = FrameSequence(SceneConfig(seed=1))
    b = FrameSequence(SceneConfig(seed=2))
    assert not np.array_equal(a.frame(0), b.frame(0))


def test_frame_shape_and_dtype():
    seq = FrameSequence(SceneConfig(width=64, height=48))
    f = seq.frame(0)
    assert f.shape == (48, 64)
    assert f.dtype == np.uint8


def test_frame_pure_function_of_index():
    seq = FrameSequence()
    assert np.array_equal(seq.frame(5), seq.frame(5))


def test_mutating_a_frame_leaves_the_next_call_unchanged():
    seq = FrameSequence(SceneConfig(seed=5))
    first = seq.frame(2)
    pristine = first.copy()
    first[:] = 0  # a caller owns the array it is handed ...
    assert np.array_equal(seq.frame(2), pristine)  # ... and keeps it


def test_consecutive_frames_differ_by_motion():
    seq = FrameSequence(SceneConfig(seed=3))
    assert not np.array_equal(seq.frame(0), seq.frame(1))


def test_background_static_outside_objects():
    seq = FrameSequence(SceneConfig(seed=3))
    f0, f1 = seq.frame(0), seq.frame(1)
    covered = seq.object_mask(0) | seq.object_mask(1)
    assert np.array_equal(f0[~covered], f1[~covered])


def test_object_motion_is_translation():
    """Object pixels in frame t+1 equal frame t pixels shifted by (vx,vy)."""
    cfg = SceneConfig(seed=11, n_objects=1, max_speed=2)
    seq = FrameSequence(cfg)
    obj = seq.objects[0]
    f0, f1 = seq.frame(0), seq.frame(1)
    # sample the interior of the object (avoid other-object overlap: n=1)
    for dy in range(obj.h):
        for dx in range(0, obj.w, 3):
            y0 = (obj.y + dy) % cfg.height
            x0 = (obj.x + dx) % cfg.width
            y1 = (obj.y + obj.vy + dy) % cfg.height
            x1 = (obj.x + obj.vx + dx) % cfg.width
            assert f1[y1, x1] == f0[y0, x0]


def test_object_mask_margin_shrinks_mask():
    seq = FrameSequence(SceneConfig(seed=5))
    full = seq.object_mask(0)
    eroded = seq.object_mask(0, margin=2)
    assert eroded.sum() < full.sum()
    assert not (eroded & ~full).any()


def test_true_motion_within_speed_limit():
    cfg = SceneConfig(max_speed=2)
    seq = FrameSequence(cfg)
    for vx, vy in seq.true_motion(0):
        assert abs(vx) <= 2 and abs(vy) <= 2


def test_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(width=62)  # not multiple of 4
    with pytest.raises(ValueError):
        SceneConfig(width=8, height=8)
    with pytest.raises(ValueError):
        SceneConfig(max_speed=-1)
