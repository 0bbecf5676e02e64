"""Tests for pixel and motion-vector word packing."""

import numpy as np
import pytest

from repro.video import (
    pack_pixels,
    pack_vector_bytes,
    unpack_pixels,
    unpack_vector_bytes,
    words_per_row,
)


def test_pack_unpack_pixels_roundtrip():
    rng = np.random.default_rng(0)
    row = rng.integers(0, 256, 64).astype(np.uint8)
    assert np.array_equal(unpack_pixels(pack_pixels(row)), row)


def test_pixel_byte_order_little_endian():
    row = np.array([0x11, 0x22, 0x33, 0x44], dtype=np.uint8)
    assert pack_pixels(row)[0] == 0x44332211


def test_pack_pixels_requires_multiple_of_4():
    with pytest.raises(ValueError):
        pack_pixels(np.zeros(5, dtype=np.uint8))


def test_unpack_pixels_count():
    words = pack_pixels(np.arange(8, dtype=np.uint8))
    assert len(unpack_pixels(words, count=6)) == 6
    with pytest.raises(ValueError):
        unpack_pixels(words, count=9)


def test_words_per_row():
    assert words_per_row(160) == 40
    with pytest.raises(ValueError):
        words_per_row(158)


def test_pack_unpack_vectors_roundtrip():
    rng = np.random.default_rng(1)
    dx = rng.integers(-4, 5, (6, 8)).astype(np.int8)
    dy = rng.integers(-4, 5, (6, 8)).astype(np.int8)
    valid = rng.integers(0, 2, (6, 8)).astype(bool)
    words = pack_vector_bytes(dx, dy, valid, 4)
    assert len(words) == 6 * 8 // 4  # one byte per pixel
    dx2, dy2, valid2 = unpack_vector_bytes(words, (6, 8), 4)
    assert np.array_equal(valid2, valid)
    assert np.array_equal(dx2[valid], dx[valid])
    assert np.array_equal(dy2[valid], dy[valid])


def test_vector_encoding_layout():
    words = pack_vector_bytes(
        np.array([-2, 0, 0, 0], dtype=np.int8),
        np.array([1, 0, 0, 0], dtype=np.int8),
        np.array([True, False, True, True]),
        radius=2,
    )
    w = int(words[0])
    assert w & 0xFF == (1 + 2) * 5 + (-2 + 2)  # (dy+r)*(2r+1) + (dx+r)
    assert (w >> 8) & 0xFF == 0xFF  # invalid
    assert (w >> 16) & 0xFF == 12  # the zero vector, centre of the window


def test_vector_range_checked():
    with pytest.raises(ValueError):
        pack_vector_bytes(
            np.array([3, 0, 0, 0], dtype=np.int16),
            np.zeros(4, np.int16),
            np.ones(4, bool),
            radius=2,
        )


def test_vector_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        pack_vector_bytes(
            np.zeros(4, np.int8), np.zeros(8, np.int8), np.zeros(4, bool), 2
        )
