"""Video Verification IPs — the camera and display substitutes.

Following the paper's testbench (§IV), the camera and VGA display are
replaced by Verification IPs that stream frames between "disk" (here: a
:class:`~repro.video.frames.FrameSequence`) and the simulated main
memory using cycle-accurate PLB bus operations.

* :class:`VideoInVIP` packs a frame into 32-bit words and DMAs it into
  the input frame buffer via bursts (4 pixels/word, 16-word lines),
* :class:`VideoOutVIP` reads a result buffer back out of memory and
  unpacks it into a frame — the "display".  It keeps nothing: the
  demonstrator's scoreboard checks results by backdoor memory reads.

Both expose blocking generator methods for the system controller to
drive, plus counters used in bus-traffic profiling.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..kernel import Module
from .formats import pack_pixels, unpack_pixels
from .frames import FrameSequence

__all__ = ["VideoInVIP", "VideoOutVIP"]


class VideoInVIP(Module):
    """Streams synthetic camera frames into memory over the PLB."""

    def __init__(
        self,
        name: str,
        port,
        sequence: FrameSequence,
        parent=None,
    ):
        super().__init__(name, parent)
        self.port = port
        self.sequence = sequence

    def send_frame(self, t: int, base_addr: int):
        """``yield from vip.send_frame(t, base)`` — full-frame DMA."""
        frame = self.sequence.frame(t)
        yield from self.port.write_block(
            base_addr, pack_pixels(frame.ravel()).tolist()
        )
        return frame

    def send_frame_backdoor(self, t: int, memory, offset: int) -> np.ndarray:
        """Zero-time load used by fast-functional test modes."""
        frame = self.sequence.frame(t)
        memory.load_words(offset, pack_pixels(frame.ravel()))
        return frame


class VideoOutVIP(Module):
    """Reads result buffers out of memory and unpacks them."""

    def __init__(self, name: str, port, parent=None):
        super().__init__(name, parent)
        self.port = port
        #: X words in the last fetch, blanked to 0
        self.corrupt_words = 0

    def fetch_pixels(self, base_addr: int, shape: Tuple[int, int]):
        """Fetch a packed pixel buffer; returns the (H, W) uint8 frame."""
        h, w = shape
        words = yield from self.port.read_block(base_addr, h * w // 4)
        clean = [w if isinstance(w, int) else 0 for w in words]
        self.corrupt_words = sum(1 for w in words if not isinstance(w, int))
        return unpack_pixels(np.array(clean, dtype=np.uint32)).reshape(shape)
