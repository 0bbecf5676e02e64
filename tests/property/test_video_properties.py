"""Property-based tests of packing formats and golden video models."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from repro.video import (
    census_transform,
    hamming_distance,
    match_features,
    pack_pixels,
    pack_vector_bytes,
    unpack_pixels,
    unpack_vector_bytes,
)


pixel_rows = arrays(
    np.uint8, st.integers(1, 32).map(lambda n: 4 * n), elements=st.integers(0, 255)
)


@given(pixel_rows)
def test_pixel_pack_roundtrip(row):
    assert np.array_equal(unpack_pixels(pack_pixels(row)), row)


@given(pixel_rows)
def test_pixel_pack_word_count(row):
    assert len(pack_pixels(row)) == len(row) // 4


@st.composite
def vector_fields(draw):
    h = draw(st.integers(1, 8))
    w = draw(st.integers(1, 8))
    radius = draw(st.integers(1, 7))
    dx = draw(arrays(np.int8, (h, w), elements=st.integers(-radius, radius)))
    dy = draw(arrays(np.int8, (h, w), elements=st.integers(-radius, radius)))
    valid = draw(arrays(np.bool_, (h, w)))
    return dx, dy, valid, radius


@given(vector_fields())
def test_vector_byte_pack_roundtrip(field):
    dx, dy, valid, radius = field
    h, w = dx.shape
    if w % 4:  # byte packing needs pixel multiples of 4 per frame
        pad = 4 - (h * w) % 4 if (h * w) % 4 else 0
        dx = np.pad(dx.ravel(), (0, pad)).reshape(1, -1)
        dy = np.pad(dy.ravel(), (0, pad)).reshape(1, -1)
        valid = np.pad(valid.ravel(), (0, pad)).reshape(1, -1)
    words = pack_vector_bytes(dx, dy, valid, radius)
    rdx, rdy, rvalid = unpack_vector_bytes(words, dx.shape, radius)
    assert np.array_equal(rvalid, valid)
    # invalid entries decode as zero vectors
    assert np.array_equal(rdx[valid], dx[valid])
    assert np.array_equal(rdy[valid], dy[valid])
    assert (rdx[~valid] == 0).all() and (rdy[~valid] == 0).all()


frames = arrays(
    np.uint8,
    st.tuples(st.integers(5, 24), st.integers(5, 24)),
    elements=st.integers(0, 255),
)


@given(frames)
def test_census_border_always_zero(frame):
    feat = census_transform(frame)
    assert (feat[0, :] == 0).all() and (feat[-1, :] == 0).all()
    assert (feat[:, 0] == 0).all() and (feat[:, -1] == 0).all()


@given(frames, st.integers(1, 50))
def test_census_illumination_invariance(frame, offset):
    """Adding a constant (without clipping) never changes the census."""
    frame = (frame // 2).astype(np.uint8)  # headroom so no clipping
    brighter = (frame + min(offset, 127)).astype(np.uint8)
    assert np.array_equal(census_transform(frame), census_transform(brighter))


@given(
    arrays(np.uint8, st.integers(1, 64), elements=st.integers(0, 255)),
    arrays(np.uint8, st.integers(1, 64), elements=st.integers(0, 255)),
)
def test_hamming_metric_properties(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    d = hamming_distance(a, b)
    assert (d <= 8).all()
    assert np.array_equal(d, hamming_distance(b, a))
    assert (hamming_distance(a, a) == 0).all()


@given(st.integers(10, 24), st.integers(10, 24), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_matching_self_is_zero_motion(h, w, seed):
    rng = np.random.default_rng(seed)
    feat = census_transform(rng.integers(0, 256, (h, w)).astype(np.uint8))
    dx, dy, valid = match_features(feat, feat)
    assert (dx[valid] == 0).all() and (dy[valid] == 0).all()
