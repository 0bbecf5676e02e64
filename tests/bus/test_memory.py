"""Tests for the PLB memory model."""

import numpy as np
import pytest

from repro.bus import PlbMemory


def test_word_read_write():
    mem = PlbMemory("mem", 1024)
    mem.plb_write(0, 0x12345678)
    assert mem.plb_read(0) == 0x12345678


def test_write_masks_to_32_bits():
    mem = PlbMemory("mem", 1024)
    mem.plb_write(4, 0x1_FFFF_FFFF)
    assert mem.plb_read(4) == 0xFFFF_FFFF


def test_unaligned_access_rejected():
    mem = PlbMemory("mem", 1024)
    with pytest.raises(ValueError):
        mem.plb_read(2)
    with pytest.raises(ValueError):
        mem.plb_write(5, 0)


def test_out_of_range_rejected():
    mem = PlbMemory("mem", 1024)
    with pytest.raises(IndexError):
        mem.plb_read(1024)


def test_unaligned_size_rejected():
    with pytest.raises(ValueError):
        PlbMemory("mem", 1026)


def test_block_load_dump_roundtrip():
    mem = PlbMemory("mem", 4096)
    data = np.arange(100, dtype=np.uint32)
    mem.load_words(0x100, data)
    out = mem.dump_words(0x100, 100)
    assert np.array_equal(out, data)


def test_block_load_bounds_checked():
    mem = PlbMemory("mem", 64)
    with pytest.raises(IndexError):
        mem.load_words(0, np.zeros(17, dtype=np.uint32))
    with pytest.raises(IndexError):
        mem.dump_words(0, 17)


def test_dump_returns_copy():
    mem = PlbMemory("mem", 64)
    out = mem.dump_words(0, 4)
    out[0] = 99
    assert mem.plb_read(0) == 0
