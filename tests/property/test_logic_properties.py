"""Property-based tests of three-valued (0/1/X) logic values."""

import hypothesis.strategies as st
from hypothesis import given

from repro.kernel import Signal
from repro.kernel.logic import LogicVector


@st.composite
def logic_vectors(draw, max_width=64):
    width = draw(st.integers(1, max_width))
    value = draw(st.integers(0, (1 << width) - 1))
    xmask = draw(st.integers(0, (1 << width) - 1))
    return LogicVector(width, value, xmask)


def _parse(text):
    """The vector an MSB-first ``0``/``1``/``x`` string renders."""
    value = xmask = 0
    for ch in text:
        value = value << 1 | (ch == "1")
        xmask = xmask << 1 | (ch == "x")
    return LogicVector(len(text), value, xmask)


@given(logic_vectors())
def test_string_roundtrip(v):
    assert _parse(v.to_string()) == v


@given(st.integers(1, 64), st.data())
def test_int_roundtrip(width, data):
    """A defined value reads back from a signal as the same ``int``,
    whether it was written as an ``int`` or as an X-free vector."""
    value = data.draw(st.integers(0, (1 << width) - 1))
    for written in (value, LogicVector(width, value)):
        sig = Signal("s", width)
        sig.next = written  # unbound: applies at once
        assert type(sig.value) is int and sig.value == value


@given(logic_vectors())
def test_hash_equal_implies_equal(v):
    w = LogicVector(v.width, v.value, v.xmask)
    assert v == w and hash(v) == hash(w)
