"""Matching Engine (ME) — census matching / motion vector accelerator.

Compares the *current* feature image against the *previous* one: for
each interior pixel it searches a ``(2r+1) x (2r+1)`` displacement
window for the minimum-Hamming-distance census signature, emitting one
byte-packed motion vector per pixel (see
:func:`repro.video.formats.pack_vector_bytes`).

The row pipeline keeps a ``2r+1``-row window of the previous feature
image in line buffers and streams the current image row by row, so per
output row the engine fetches one new row of each input and writes one
row of vectors — the 3x-per-row bus traffic that makes the ME's frame
take longer in *simulated* time than the CIE's (1.4 ms vs 1.1 ms in
Table II) even though its datapath toggles less per pixel.

Tie-breaking matches the golden model exactly: candidates are scanned
from the window centre outward and only a strictly smaller cost
replaces the incumbent, so zero motion is preferred.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..video.census import hamming_distance
from ..video.formats import pack_vector_bytes, unpack_pixels, words_per_row
from ..video.matching import _search_order
from .base import EngineParams, VideoEngine

__all__ = ["MatchingEngine"]


class MatchingEngine(VideoEngine):
    """The ME reconfigurable module (SimB module id 0x2)."""

    ENGINE_ID = 0x2
    #: sequential window search: lower throughput, sparser datapath
    #: toggling
    CYCLES_PER_PIXEL = 1.25
    ACTIVITY_PER_PIXEL = 0.25

    def __init__(self, name: str = "me", clock=None, parent=None):
        super().__init__(name, clock, parent)

    def _process_frame(self, params: EngineParams, corrupted: bool):
        w, h = params.width, params.height
        r = params.radius
        if not 1 <= r <= 7:
            raise ValueError(f"ME search radius {r} outside supported 1..7")
        m = r + 1
        wpr = words_per_row(w)
        order = _search_order(r)
        prev_rows: Dict[int, np.ndarray] = {}

        def fetch_prev(row: int):
            words = yield from self._read_words(params.src2 + row * wpr * 4, wpr)
            prev_rows[row] = unpack_pixels(words, count=w)

        invalid_row = np.zeros(w, dtype=np.int8)
        no_valid = np.zeros(w, dtype=bool)

        for y in range(h):
            if not self.present:
                return False
            if y < m or y >= h - m:
                # outside the matchable interior: all-invalid row
                yield from self._write_words(
                    params.dst + y * wpr * 4,
                    pack_vector_bytes(invalid_row, invalid_row, no_valid, r),
                )
                continue
            # FETCH: current row + the previous-image window rows
            words = yield from self._read_words(params.src1 + y * wpr * 4, wpr)
            curr_row = unpack_pixels(words, count=w)
            for py in range(y - r, y + r + 1):
                if py not in prev_rows:
                    yield from fetch_prev(py)
            # evict rows that slid out of the window
            for py in [k for k in prev_rows if k < y - r]:
                del prev_rows[py]

            yield from self._compute_row(w)

            if corrupted:
                # unreset line buffers: plausible but wrong vectors
                dx = np.full(w, -r, dtype=np.int8)
                dy = np.full(w, -r, dtype=np.int8)
                valid = np.ones(w, dtype=bool)
                valid[:m] = valid[w - m :] = False
            else:
                dx, dy, valid = self._match_row(curr_row, prev_rows, y, w, m, r, order)
            yield from self._write_words(
                params.dst + y * wpr * 4, pack_vector_bytes(dx, dy, valid, r)
            )
        return True

    @staticmethod
    def _match_row(curr_row, prev_rows, y, w, m, r, order):
        """Match one row; bit-identical to the golden whole-frame model."""
        best_cost = np.full(w, 255, dtype=np.uint8)
        best_dx = np.zeros(w, dtype=np.int8)
        best_dy = np.zeros(w, dtype=np.int8)
        xs = slice(m, w - m)
        curr_c = curr_row[xs]
        for dx, dy in order:
            prev_row = prev_rows[y - dy]
            prev_c = prev_row[m - dx : w - m - dx]
            cost = hamming_distance(curr_c, prev_c)
            better = cost < best_cost[xs]
            seg_dx = best_dx[xs]
            seg_dy = best_dy[xs]
            seg_cost = best_cost[xs]
            seg_dx[better] = dx
            seg_dy[better] = dy
            seg_cost[better] = cost[better]
            best_dx[xs] = seg_dx
            best_dy[xs] = seg_dy
            best_cost[xs] = seg_cost
        valid = np.zeros(w, dtype=bool)
        valid[xs] = curr_c != 0
        best_dx[~valid] = 0
        best_dy[~valid] = 0
        return best_dx, best_dy, valid
