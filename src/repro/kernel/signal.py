"""Signals — the state elements of the simulated design.

A :class:`Signal` holds a three-valued value: a plain ``int`` while
every bit is defined, a :class:`~repro.kernel.logic.LogicVector` while
any bit is ``X``.  It follows HDL non-blocking-assignment semantics:
writes performed during the evaluation phase of a delta cycle
(``sig.next = v``) take effect in the following update phase, at which
point edge triggers fire and sensitive processes are scheduled for the
next delta.

``next`` owns the width rule and the value convention: every value it
schedules has exactly the signal's width (a narrower one is
zero-extended, a wider one raises :class:`SignalWriteError` unless its
extra bits are zero), and a fully defined vector is scheduled as its
``int``.  The simulator's update phase owns the commit rule: a commit
changes the signal iff the new value differs (``!=``; an ``int`` never
equals a vector), and each change is counted per owning module — that
is how the Table II "elapsed time tracks signal activity" experiment is
measured.
"""

from __future__ import annotations

from typing import Optional, Union

from .logic import LogicVector

__all__ = ["Signal", "SignalWriteError"]


class SignalWriteError(RuntimeError):
    pass


def _coerce_value(
    value: Union[LogicVector, int, bool], width: int
) -> Union[int, LogicVector]:
    """``value`` fitted to ``width`` bits: an ``int`` unless it carries X."""
    if isinstance(value, LogicVector):
        if value.width != width:
            if value.width > width and (value.value | value.xmask) >> width:
                raise SignalWriteError(
                    f"value of width {value.width} does not fit signal "
                    f"of width {width}"
                )
            value = value.resize(width)
        return value if value.xmask else value.value
    if isinstance(value, int):  # int, bool, IntEnum, ...
        value = int(value)
        if value < 0:
            return value & ((1 << width) - 1)
        if value >> width:
            raise SignalWriteError(
                f"value {value:#x} does not fit in {width} bits"
            )
        return value
    raise TypeError(f"cannot drive signal with {value!r}")


class Signal:
    """A named, traced, three-valued signal with non-blocking updates."""

    __slots__ = (
        "name",
        "width",
        "_value",
        "_sim",
        "owner",
        "_w_any",
        "_w_rise",
        "_vcd_id",
        "_limit",
    )

    def __init__(
        self,
        name: str,
        width: int = 1,
        init: Union[LogicVector, int, None] = None,
        owner=None,
    ):
        self.name = name
        self.width = width
        # exclusive upper bound of the in-range int writes ``next``
        # stores as they are
        self._limit = 1 << width
        if init is None:
            self._value = LogicVector.unknown(width)
        else:
            self._value = _coerce_value(init, width)
        self._sim = None
        self.owner = owner
        # primed Edge triggers, one list per edge kind, held in dedicated
        # slots so the update hot path never goes through a dict
        self._w_any = []
        self._w_rise = []
        self._vcd_id: Optional[str] = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def value(self) -> Union[int, LogicVector]:
        """The ``int`` value, or a :class:`LogicVector` if any bit is X."""
        return self._value

    @property
    def is_high(self) -> bool:
        """True iff this is a 1-bit signal at a defined 1."""
        return self.width == 1 and self._value == 1

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @property
    def next(self):
        raise AttributeError("signal.next is write-only; read signal.value")

    @next.setter
    def next(self, value: Union[LogicVector, int, bool]) -> None:
        """Schedule a non-blocking update to take effect this delta."""
        if type(value) is not int or not 0 <= value < self._limit:
            value = _coerce_value(value, self.width)
        sim = self._sim
        if sim is None:
            # Not yet bound to a simulator: apply immediately (elaboration).
            self._value = value
            return
        sim._updates[self] = value

    # ------------------------------------------------------------------
    # Kernel interface
    # ------------------------------------------------------------------
    def _bind(self, sim) -> None:
        self._sim = sim

    def __repr__(self) -> str:
        return f"Signal({self.name}={self._value!r})"
