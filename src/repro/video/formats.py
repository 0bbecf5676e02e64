"""Pixel/word packing shared by the VIPs, the engines and the software.

Everything on the PLB moves as 32-bit words:

* **pixels / census signatures** — 4 per word, little-endian byte order
  (pixel ``x`` of a group of four occupies bits ``8*x .. 8*x+7``),
* **motion vectors** — one byte per pixel, four per word (see
  :func:`pack_vector_bytes`): the index of the displacement within the
  search window, or ``0xFF`` where no vector is valid.

These layouts are part of the hardware/software contract: the drawing
software decodes exactly what the Matching Engine wrote.  (Table III's
``bug.dpr.5`` is precisely a hardware/software contract mismatch, on the
bitstream-size side.)
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "pack_pixels",
    "unpack_pixels",
    "pack_vector_bytes",
    "unpack_vector_bytes",
    "words_per_row",
    "VECTOR_BYTE_INVALID",
]

VECTOR_BYTE_INVALID = 0xFF


def words_per_row(width: int) -> int:
    if width % 4:
        raise ValueError(f"row width {width} is not a multiple of 4 pixels")
    return width // 4


def pack_pixels(row: np.ndarray) -> np.ndarray:
    """Pack a 1-D uint8 pixel row (or flattened frame) into uint32 words."""
    row = np.ascontiguousarray(row, dtype=np.uint8)
    if row.size % 4:
        raise ValueError("pixel count must be a multiple of 4")
    return row.view("<u4").copy()


def unpack_pixels(words: np.ndarray, count: int | None = None) -> np.ndarray:
    """Inverse of :func:`pack_pixels`."""
    words = np.ascontiguousarray(words, dtype="<u4")
    pixels = words.view(np.uint8).copy()
    if count is not None:
        if count > pixels.size:
            raise ValueError("requested more pixels than packed words hold")
        pixels = pixels[:count]
    return pixels


def pack_vector_bytes(
    dx: np.ndarray, dy: np.ndarray, valid: np.ndarray, radius: int
) -> np.ndarray:
    """Pack motion vectors as one byte per pixel (the ME's memory format).

    Byte value is ``(dy+r)*(2r+1) + (dx+r)`` for valid vectors and
    ``0xFF`` for invalid ones; four pixels per 32-bit word.  Requires
    ``radius <= 7`` so every index fits in a byte.
    """
    if not 1 <= radius <= 7:
        raise ValueError("byte-packed vectors require 1 <= radius <= 7")
    dx = np.asarray(dx, dtype=np.int16)
    dy = np.asarray(dy, dtype=np.int16)
    valid = np.asarray(valid, dtype=bool)
    if not (dx.shape == dy.shape == valid.shape):
        raise ValueError("dx/dy/valid shapes differ")
    if (np.abs(dx[valid]) > radius).any() or (np.abs(dy[valid]) > radius).any():
        raise ValueError(f"displacement exceeds search radius {radius}")
    span = 2 * radius + 1
    codes = ((dy + radius) * span + (dx + radius)).astype(np.uint8)
    codes = np.where(valid, codes, np.uint8(VECTOR_BYTE_INVALID))
    return pack_pixels(codes.ravel().astype(np.uint8))


def unpack_vector_bytes(
    words: np.ndarray, shape: Tuple[int, int], radius: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_vector_bytes`; returns (dx, dy, valid)."""
    if not 1 <= radius <= 7:
        raise ValueError("byte-packed vectors require 1 <= radius <= 7")
    h, w = shape
    codes = unpack_pixels(np.asarray(words, dtype=np.uint32), count=h * w)
    codes = codes.reshape(shape)
    valid = codes != VECTOR_BYTE_INVALID
    span = 2 * radius + 1
    safe = np.where(valid, codes, 0).astype(np.int16)
    dy = safe // span - radius
    dx = safe % span - radius
    dx[~valid] = 0
    dy[~valid] = 0
    return dx.astype(np.int8), dy.astype(np.int8), valid

