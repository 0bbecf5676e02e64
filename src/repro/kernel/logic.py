"""Three-valued logic values for RTL simulation.

RTL simulation of dynamic partial reconfiguration needs an unknown
value: during reconfiguration, the ReSim-style error injector drives
``X`` onto every output of the reconfigurable region, and the testbench
must observe whether those ``X`` values corrupt the static region (e.g.
break the DCR daisy chain).  Two-state simulation cannot express that
experiment at all, so each bit is ``0``, ``1`` or ``X``.  Nothing in
the modelled SoC is tri-stated, so there is no high-impedance value.

A value whose every bit is defined is a plain ``int``.  A
:class:`LogicVector` is the value that carries ``X``: an immutable
fixed-width bundle of bits, represented as two parallel integers:

``value``
    the defined bit pattern (bits that are X read as 0 here),
``xmask``
    bit set where the corresponding bit is ``X``.

A vector is a value to store, compare and render: ``==`` between two
vectors is case equality (``===``, so X equals X), and a vector never
equals an ``int``.  Models compute on plain integers.
"""

from __future__ import annotations

__all__ = [
    "LogicVector",
    "xbits",
]


def _mask(width: int) -> int:
    return (1 << width) - 1


class LogicVector:
    """An immutable ``width``-bit three-valued logic value."""

    __slots__ = ("width", "value", "xmask")

    def __init__(self, width: int, value: int = 0, xmask: int = 0):
        if width <= 0:
            raise ValueError(f"LogicVector width must be positive, got {width}")
        m = _mask(width)
        xmask &= m
        # X bits read as 0 in `value` so equality is canonical.
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "value", value & ~xmask & m)
        object.__setattr__(self, "xmask", xmask)

    def __setattr__(self, name, _value):  # pragma: no cover - defensive
        raise AttributeError("LogicVector is immutable")

    def to_string(self) -> str:
        """MSB-first bit string, e.g. ``"10x1"``."""
        return "".join(
            "x" if self.xmask >> i & 1 else "1" if self.value >> i & 1 else "0"
            for i in range(self.width - 1, -1, -1)
        )

    def __repr__(self) -> str:
        return f"LogicVector({self.width}'b{self.to_string()})"

    def __hash__(self) -> int:
        return hash((self.width, self.value, self.xmask))

    def __bool__(self) -> bool:
        raise TypeError(
            f"{self!r} has no truth value: compare it with == or test "
            f"whether it is an int"
        )

    def __eq__(self, other: object) -> bool:
        """Case equality (``===``, X equals X); never true against an int."""
        if not isinstance(other, LogicVector):
            return NotImplemented
        return (
            self.width == other.width
            and self.value == other.value
            and self.xmask == other.xmask
        )

    def resize(self, width: int) -> "LogicVector":
        """Zero-extend or truncate to ``width`` bits."""
        if width == self.width:
            return self
        return LogicVector(width, self.value, self.xmask)


def xbits(width: int) -> LogicVector:
    """All ``width`` bits ``X`` — the reset/error-injection value."""
    return LogicVector(width, 0, _mask(width))
