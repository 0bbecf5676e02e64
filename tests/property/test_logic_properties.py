"""Property-based tests of four-state logic values."""

import hypothesis.strategies as st
from hypothesis import given

from repro.kernel.logic import LogicVector


@st.composite
def logic_vectors(draw, max_width=64):
    width = draw(st.integers(1, max_width))
    bits = draw(st.lists(st.sampled_from("01xz"), min_size=width, max_size=width))
    return LogicVector.from_string("".join(bits))


@given(logic_vectors())
def test_string_roundtrip(v):
    assert LogicVector.from_string(v.to_string()) == v


@given(st.integers(1, 64), st.data())
def test_int_roundtrip(width, data):
    value = data.draw(st.integers(0, (1 << width) - 1))
    assert LogicVector.from_int(value, width).to_int() == value


@given(logic_vectors())
def test_hash_equal_implies_equal(v):
    w = LogicVector(v.width, v.value, v.xmask, v.zmask)
    assert v == w and hash(v) == hash(w)
