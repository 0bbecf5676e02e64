"""Unit tests for three-valued (0/1/X) logic values."""

import pytest

from repro.kernel import Signal
from repro.kernel.logic import LogicVector, xbits


class TestConstruction:
    def test_negative_int_wraps(self):
        sig = Signal("s", 4, init=-1)
        assert sig.value == 0xF
        sig.next = -2  # unbound: applies at once
        assert sig.value == 0xE

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            LogicVector(0)

    def test_unknown(self):
        v = xbits(4)
        assert v.xmask == 0xF
        assert v.to_string() == "xxxx"

    def test_canonical_value_bits_under_masks(self):
        # bits covered by xmask read as 0 in `value`
        v = LogicVector(4, 0b1111, xmask=0b0011)
        assert v.value == 0b1100


class TestInspection:
    def test_bit_char(self):
        # one character per bit, MSB first
        assert LogicVector(4, 0b1001, xmask=0b0100).to_string() == "1x01"
        assert LogicVector(1, 1).to_string() == "1"

    def test_immutability(self):
        v = xbits(1)
        with pytest.raises(AttributeError):
            v.value = 0


class TestEquality:
    def test_case_equality(self):
        assert LogicVector(4, 0b1000, 0b0100) == LogicVector(4, 0b1000, 0b0100)
        assert LogicVector(2, 0b10, 0b01) != LogicVector(2, 0b10)
        # a vector never equals an int, even a fully defined one: a
        # signal stores every defined value as its int
        assert LogicVector(4, 5) != 5
        assert xbits(4) != 0

    def test_hashable(self):
        x1 = LogicVector(2, 0b10, 0b01)
        assert len({x1, LogicVector(2, 0b10, 0b01), LogicVector(2, 0b10)}) == 2


class TestSliceConcat:
    # resize is what ``Signal.next`` uses to fit a narrower or
    # zero-topped wider vector to the signal's width
    def test_resize(self):
        assert LogicVector(4, 0xF).resize(8) == LogicVector(8, 0x0F)
        assert LogicVector(8, 0xFF).resize(4) == LogicVector(4, 0xF)
        v = LogicVector(2, 0b01, xmask=0b10)
        assert v.resize(4).to_string() == "00x1"
