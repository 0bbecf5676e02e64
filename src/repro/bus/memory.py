"""Main memory — the PLB slave backing frames and bitstreams.

Models the demonstrator's external memory: video frames (input, feature
images, motion vectors, output) and the partial bitstreams all live
here, and every agent (video VIPs, engines, IcapCTRL, CPU) reaches it
through the shared PLB.  Backed by a NumPy ``uint32`` array so frame-
sized block loads/stores used by the testbench are vectorized, while
word-level bus accesses stay cycle-accurate.
"""

from __future__ import annotations

import numpy as np

from ..kernel import Module
from .plb import PlbSlave, WORD_BYTES, WORD_MASK

__all__ = ["PlbMemory"]


class PlbMemory(Module, PlbSlave):
    """A word-addressable RAM with one read wait state."""

    read_wait_states = 1

    def __init__(self, name: str, size_bytes: int, parent=None):
        Module.__init__(self, name, parent)
        if size_bytes % WORD_BYTES:
            raise ValueError("memory size must be word aligned")
        self.size_bytes = size_bytes
        self.words = np.zeros(size_bytes // WORD_BYTES, dtype=np.uint32)

    # ------------------------------------------------------------------
    # PLB slave interface (offset is relative to the mapping base)
    # ------------------------------------------------------------------
    def _index(self, offset: int) -> int:
        if offset % WORD_BYTES:
            raise ValueError(f"unaligned memory access at offset {offset:#x}")
        idx = offset // WORD_BYTES
        if not 0 <= idx < len(self.words):
            raise IndexError(
                f"memory access at offset {offset:#x} beyond size "
                f"{self.size_bytes:#x}"
            )
        return idx

    def plb_read(self, offset: int) -> int:
        return int(self.words[self._index(offset)])

    def plb_write(self, offset: int, data: int) -> None:
        self.words[self._index(offset)] = data & WORD_MASK

    # ------------------------------------------------------------------
    # Backdoor block access (testbench/VIP use; no bus traffic)
    # ------------------------------------------------------------------
    def load_words(self, offset: int, data: np.ndarray) -> None:
        idx = self._index(offset)
        data = np.asarray(data, dtype=np.uint32)
        if idx + len(data) > len(self.words):
            raise IndexError("block load beyond end of memory")
        self.words[idx : idx + len(data)] = data

    def dump_words(self, offset: int, count: int) -> np.ndarray:
        idx = self._index(offset)
        if idx + count > len(self.words):
            raise IndexError("block dump beyond end of memory")
        return self.words[idx : idx + count].copy()
