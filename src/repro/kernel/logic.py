"""Three-valued logic values for RTL simulation.

RTL simulation of dynamic partial reconfiguration needs an unknown
value: during reconfiguration, the ReSim-style error injector drives
``X`` onto every output of the reconfigurable region, and the testbench
must observe whether those ``X`` values corrupt the static region (e.g.
break the DCR daisy chain).  Two-state simulation cannot express that
experiment at all, so each bit is ``0``, ``1`` or ``X``.  Nothing in
the modelled SoC is tri-stated, so there is no high-impedance value.

A :class:`LogicVector` is an immutable fixed-width bundle of bits.  The
representation is two parallel integers:

``value``
    the defined bit pattern (bits that are X read as 0 here),
``xmask``
    bit set where the corresponding bit is ``X``.

A vector is a value to store, compare and render: ``==`` is case
equality (``===``, so X equals X), and models compute on plain integers
(``value`` once the vector :attr:`~LogicVector.is_defined`, or
:meth:`~LogicVector.to_int_or`).
"""

from __future__ import annotations

__all__ = [
    "LogicVector",
    "LV",
    "bit",
    "xbits",
]


def _mask(width: int) -> int:
    return (1 << width) - 1


# ----------------------------------------------------------------------
# Interning of small fully-defined vectors
# ----------------------------------------------------------------------
# The kernel's hottest allocations are tiny constants: clock toggles,
# control strobes, narrow counters.  LogicVector is immutable, so every
# fully-defined value of width <= _INTERN_WIDTH is a shared singleton
# and driving `sig.next = 0/1` allocates nothing.
_INTERN_WIDTH = 8

_new = object.__new__


def _new_defined(width: int, value: int) -> "LogicVector":
    """Fast constructor for a fully-defined vector.

    Bypasses ``__init__``'s masking/consistency checks (writing the
    slots through their descriptors, which sidesteps the immutability
    guard); callers must guarantee ``width > 0`` and
    ``0 <= value < 2**width``.
    """
    lv = _new(LogicVector)
    _set_width(lv, width)
    _set_value(lv, value)
    _set_xmask(lv, 0)
    return lv


_interned: dict = {}


def _intern_table(width: int) -> list:
    table = _interned.get(width)
    if table is None:
        table = _interned[width] = [
            _new_defined(width, v) for v in range(1 << width)
        ]
    return table


def intern_defined(width: int, value: int) -> "LogicVector":
    """The canonical vector for a small fully-defined value.

    Falls back to a fresh (unshared) vector above the interning width.
    Callers must guarantee ``width > 0`` and ``0 <= value < 2**width``.
    """
    if width <= _INTERN_WIDTH:
        return _intern_table(width)[value]
    return _new_defined(width, value)


_small_tables: dict = {}


def _small_table(width: int) -> list:
    """Shared vectors for the first 256 values of a wide width.

    Wide signals can't intern their full value range, but the values
    that actually flow through buses and counters are overwhelmingly
    small (strobes, opcodes, beat data, addresses near a base).  One
    lazily-built 256-entry table per width lets ``sig.next = small_int``
    reuse a shared vector instead of allocating.  Only meaningful for
    ``width > _INTERN_WIDTH`` (below that the full table exists).
    """
    table = _small_tables.get(width)
    if table is None:
        table = _small_tables[width] = [
            _new_defined(width, v) for v in range(256)
        ]
    return table


class LogicVector:
    """An immutable ``width``-bit three-valued logic value."""

    __slots__ = ("width", "value", "xmask")

    def __init__(self, width: int, value: int = 0, xmask: int = 0):
        if width <= 0:
            raise ValueError(f"LogicVector width must be positive, got {width}")
        m = _mask(width)
        xmask &= m
        # X bits read as 0 in `value` so equality is canonical.
        _set_width(self, width)
        _set_value(self, value & ~xmask & m)
        _set_xmask(self, xmask)

    def __setattr__(self, name, _value):  # pragma: no cover - defensive
        raise AttributeError("LogicVector is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_int(cls, value: int, width: int) -> "LogicVector":
        """Build a fully-defined vector from a non-negative integer."""
        if width <= 0:
            raise ValueError(f"LogicVector width must be positive, got {width}")
        if value < 0:
            value &= _mask(width)
        if value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        if cls is LogicVector:
            return intern_defined(width, value)
        return cls(width, value)

    @classmethod
    def unknown(cls, width: int) -> "LogicVector":
        """All bits ``X`` — the reset/error-injection value."""
        return cls(width, 0, _mask(width))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def is_defined(self) -> bool:
        """True when no bit is ``X``."""
        return not self.xmask

    @property
    def has_x(self) -> bool:
        return bool(self.xmask)

    def to_int(self) -> int:
        """The integer value; raises if any bit is undefined."""
        if not self.is_defined:
            raise ValueError(f"cannot convert {self!r} with X bits to int")
        return self.value

    def to_int_or(self, default: int) -> int:
        return self.value if self.is_defined else default

    def bit_char(self, i: int) -> str:
        if not 0 <= i < self.width:
            raise IndexError(f"bit {i} out of range for width {self.width}")
        b = 1 << i
        if self.xmask & b:
            return "x"
        return "1" if self.value & b else "0"

    def to_string(self) -> str:
        """MSB-first bit string, e.g. ``"10x1"``."""
        return "".join(self.bit_char(i) for i in range(self.width - 1, -1, -1))

    def __repr__(self) -> str:
        if self.is_defined:
            return f"LV({self.width}'h{self.value:x})"
        return f"LV({self.width}'b{self.to_string()})"

    def __hash__(self) -> int:
        return hash((self.width, self.value, self.xmask))

    def __len__(self) -> int:
        return self.width

    def __bool__(self) -> bool:
        """True iff the vector is defined and non-zero.

        An X-contaminated vector is *not* truthy; use :meth:`has_x` to
        check for contamination explicitly.
        """
        return self.is_defined and self.value != 0

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Exact (case-equality, ``===``) comparison; X==X."""
        other = _coerce(other, self.width)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.width == other.width
            and self.value == other.value
            and self.xmask == other.xmask
        )

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    # ------------------------------------------------------------------
    # Width
    # ------------------------------------------------------------------
    def resize(self, width: int) -> "LogicVector":
        """Zero-extend or truncate to ``width`` bits."""
        if width == self.width:
            return self
        return LogicVector(width, self.value, self.xmask)


# Prefetched slot descriptors: the fastest pure-Python way to write the
# slots of an immutable instance (``object.__setattr__`` pays a name
# lookup per call; the descriptor write does not).
_set_width = LogicVector.__dict__["width"].__set__
_set_value = LogicVector.__dict__["value"].__set__
_set_xmask = LogicVector.__dict__["xmask"].__set__


def _coerce(value: object, width: int):
    """``value`` as a vector to compare with one of ``width`` bits."""
    if isinstance(value, LogicVector):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        w = max(width, value.bit_length() or 1)
        return LogicVector(w, value & _mask(w))
    if isinstance(value, bool):
        return LogicVector(1, int(value))
    return NotImplemented


def LV(value: int, width: int | None = None) -> LogicVector:
    """Convenience constructor: ``LV(5, 8)``; ``LV(5)`` takes the fewest bits."""
    if width is None:
        width = max(value.bit_length(), 1)
    return LogicVector.from_int(value, width)


def bit(value: int) -> LogicVector:
    """A single defined bit (interned)."""
    return _intern_table(1)[value & 1]


def xbits(width: int) -> LogicVector:
    return LogicVector.unknown(width)
