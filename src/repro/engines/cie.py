"""Census Image Engine (CIE) — frame to feature-image accelerator.

Row-pipelined architecture matching the AutoVision IP: a three-row line
buffer slides down the frame; for each interior row the 3x3 census
window is evaluated for every pixel and the 8-bit signatures are burst
back to memory.  Pixel math is bit-identical to the golden model in
:mod:`repro.video.census`; what this module adds is the cycle-accurate
bus behaviour and datapath activity of the hardware.

The CIE has the densest datapath of the system (eight comparators per
pixel every cycle), which the paper observed as higher signal-flipping
activity — and hence a *slower simulation* than the ME despite a
shorter simulated runtime (Table II).  Its default
``activity_per_pixel`` encodes that density.
"""

from __future__ import annotations

import numpy as np

from ..video.census import census_transform
from ..video.formats import pack_pixels, unpack_pixels, words_per_row
from .base import EngineParams, VideoEngine

__all__ = ["CensusImageEngine"]

#: the byte written per feature pixel when the engine runs unreset
GARBAGE_FEATURE = 0xA5


class CensusImageEngine(VideoEngine):
    """The CIE reconfigurable module (SimB module id 0x1)."""

    ENGINE_ID = 0x1
    #: throughput ~1 px/cycle plus pipeline refill; dense comparator
    #: activity (eight parallel window comparators flip several nets per
    #: pixel)
    CYCLES_PER_PIXEL = 1.0
    ACTIVITY_PER_PIXEL = 5.0

    def __init__(self, name: str = "cie", clock=None, parent=None):
        super().__init__(name, clock, parent)

    def _process_frame(self, params: EngineParams, corrupted: bool):
        w, h = params.width, params.height
        wpr = words_per_row(w)
        rows: list = [None] * 3  # sliding 3-row window
        zero_row = np.zeros(w, dtype=np.uint8)

        for y in range(h):
            if not self.present:
                return False  # swapped out mid-frame
            # FETCH: row y of the input frame
            words = yield from self._read_words(params.src1 + y * wpr * 4, wpr)
            rows[y % 3] = unpack_pixels(words, count=w)
            # PROCESS/WRITEBACK: once rows y-2..y are buffered, emit y-1
            if y >= 2:
                out_y = y - 1
                slab = np.stack(
                    [rows[(out_y - 1) % 3], rows[out_y % 3], rows[(out_y + 1) % 3]]
                )
                yield from self._compute_row(w)
                if corrupted:
                    feat_row = np.full(w, GARBAGE_FEATURE, dtype=np.uint8)
                    feat_row[0] = feat_row[-1] = 0
                else:
                    feat_row = census_transform(slab)[1]
                yield from self._write_words(
                    params.dst + out_y * wpr * 4, pack_pixels(feat_row)
                )
        # border rows written as zero signatures
        for out_y in (0, h - 1):
            if not self.present:
                return False
            yield from self._write_words(
                params.dst + out_y * wpr * 4, pack_pixels(zero_row)
            )
        return True
