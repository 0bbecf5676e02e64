"""Unit tests for three-valued (0/1/X) logic values."""

import pytest

from repro.kernel.logic import LV, LogicVector, xbits


class TestConstruction:
    def test_from_int(self):
        v = LogicVector.from_int(0xA5, 8)
        assert v.width == 8
        assert v.to_int() == 0xA5
        assert v.is_defined

    def test_from_int_too_wide(self):
        with pytest.raises(ValueError):
            LogicVector.from_int(0x100, 8)

    def test_negative_int_wraps(self):
        assert LogicVector.from_int(-1, 4).to_int() == 0xF

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            LogicVector(0)

    def test_unknown(self):
        v = LogicVector.unknown(4)
        assert v.has_x
        assert not v.is_defined
        assert v.to_string() == "xxxx"

    def test_lv_convenience(self):
        assert LV(5, 8).to_int() == 5
        assert LV(5).width == 3
        assert LV(0).width == 1
        with pytest.raises(ValueError):
            LV(0x10, 4)

    def test_canonical_value_bits_under_masks(self):
        # bits covered by xmask read as 0 in `value`
        v = LogicVector(4, 0b1111, xmask=0b0011)
        assert v.value == 0b1100


class TestInspection:
    def test_to_int_raises_on_x(self):
        with pytest.raises(ValueError):
            xbits(4).to_int()

    def test_to_int_or(self):
        assert xbits(4).to_int_or(7) == 7
        assert LV(3, 4).to_int_or(7) == 3

    def test_bool_semantics(self):
        assert bool(LV(1, 1))
        assert not bool(LV(0, 4))
        assert not bool(xbits(4))  # X is not truthy

    def test_bit_char(self):
        v = LogicVector(4, 0b1001, xmask=0b0100)
        assert v.bit_char(3) == "1"
        assert v.bit_char(2) == "x"
        assert v.bit_char(1) == "0"
        assert v.bit_char(0) == "1"
        with pytest.raises(IndexError):
            v.bit_char(4)

    def test_immutability(self):
        v = LV(1, 1)
        with pytest.raises(AttributeError):
            v.value = 0


class TestEquality:
    def test_case_equality(self):
        assert LogicVector(4, 0b1000, 0b0100) == LogicVector(4, 0b1000, 0b0100)
        assert LogicVector(2, 0b10, 0b01) != LV(0b10, 2)
        assert LV(5, 4) == 5
        assert LV(5, 4) != 6

    def test_hashable(self):
        x1 = LogicVector(2, 0b10, 0b01)
        assert len({x1, LogicVector(2, 0b10, 0b01), LV(0b10, 2)}) == 2


class TestSliceConcat:
    # resize is what ``Signal.next`` uses to fit a narrower or
    # zero-topped wider vector to the signal's width
    def test_resize(self):
        assert LV(0xF, 4).resize(8).to_int() == 0x0F
        assert LV(0xFF, 8).resize(4).to_int() == 0xF
        v = LogicVector(2, 0b01, xmask=0b10)
        assert v.resize(4).to_string() == "00x1"
