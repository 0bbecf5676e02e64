"""Signals — the state elements of the simulated design.

A :class:`Signal` holds a four-state :class:`~repro.kernel.logic.LogicVector`
and follows HDL non-blocking-assignment semantics: writes performed during
the evaluation phase of a delta cycle (``sig.next = v``) take effect in the
following update phase, at which point edge triggers fire and sensitive
processes are scheduled for the next delta.

Value-change counts are accumulated per signal and rolled up per owning
module by the simulator's activity accounting — that is how the Table II
"elapsed time tracks signal activity" experiment is measured.  A commit
(:meth:`Signal._apply`, inlined by the scheduler's update phase) has one
rule for every value: it changes the signal iff ``value``, ``xmask`` or
``zmask`` differ.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Union

from .logic import (
    _INTERN_WIDTH,
    LogicVector,
    _intern_table,
    _new_defined,
    _small_table,
)

__all__ = ["Signal", "SignalWriteError"]

_BIT0 = _intern_table(1)[0]
_BIT1 = _intern_table(1)[1]

class SignalWriteError(RuntimeError):
    pass


def _coerce_int(value: int, width: int) -> LogicVector:
    if value < 0:
        value &= (1 << width) - 1
    elif value >> width:
        raise SignalWriteError(f"value {value:#x} does not fit in {width} bits")
    if width <= _INTERN_WIDTH:
        return _intern_table(width)[value]
    return _new_defined(width, value)


def _coerce_value(value: Union[LogicVector, int, bool], width: int) -> LogicVector:
    if type(value) is int:  # hot path: plain int writes
        return _coerce_int(value, width)
    if isinstance(value, LogicVector):
        if value.width != width:
            if value.width < width or not (
                (value.value | value.xmask | value.zmask) >> width
            ):
                return value.resize(width)
            raise SignalWriteError(
                f"value of width {value.width} does not fit signal of width {width}"
            )
        return value
    if isinstance(value, (bool, int)):  # bool, IntEnum, ...
        return _coerce_int(int(value), width)
    raise TypeError(f"cannot drive signal with {value!r}")


class Signal:
    """A named, traced, four-state signal with non-blocking updates."""

    __slots__ = (
        "name",
        "width",
        "_value",
        "_sim",
        "owner",
        "_w_any",
        "_w_rise",
        "_w_fall",
        "change_count",
        "_vcd_id",
        "_pending",
        "_monitors",
        "_limit",
        "_small",
        "_make",
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
        # precomputed int-write fast path: exclusive upper bound, the
        # interned constant table (None above the interning width), and
        # a one-call in-range-int -> LogicVector maker
        self._limit = 1 << width
        if width <= _INTERN_WIDTH:
            self._small = _intern_table(width)
            self._make = self._small.__getitem__
        else:
            self._small = None
            small = _small_table(width)
            small_get = small.__getitem__
            fresh = partial(_new_defined, width)

            def _make(value, _get=small_get, _fresh=fresh):
                return _get(value) if value < 256 else _fresh(value)

            self._make = _make
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
        self._w_fall = []
        self.change_count = 0
        self._vcd_id: Optional[str] = None
        self._pending = False
        self._monitors = None  # lazily created list of callbacks

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def value(self) -> LogicVector:
        return self._value

    def to_int(self) -> int:
        return self._value.to_int()

    def to_int_or(self, default: int) -> int:
        return self._value.to_int_or(default)

    @property
    def is_high(self) -> bool:
        """True iff this is a 1-bit signal at a defined 1."""
        v = self._value
        return self.width == 1 and v.value == 1 and v.is_defined

    @property
    def is_low(self) -> bool:
        """True iff this is a 1-bit signal at a defined 0.

        Symmetric with :attr:`is_high`: both require ``width == 1``, so a
        multi-bit all-zeros vector is neither "low" nor "high" — use
        ``to_int()``/comparisons for buses.
        """
        v = self._value
        return self.width == 1 and v.value == 0 and v.is_defined

    @property
    def has_x(self) -> bool:
        return self._value.has_x

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @property
    def next(self):
        raise AttributeError("signal.next is write-only; read signal.value")

    @next.setter
    def next(self, value: Union[LogicVector, int, bool]) -> None:
        """Schedule a non-blocking update to take effect this delta."""
        if type(value) is int and 0 <= value < self._limit:
            new = self._make(value)
        else:
            new = _coerce_value(value, self.width)
        sim = self._sim
        if sim is None:
            # Not yet bound to a simulator: apply immediately (elaboration).
            self._value = new
            return
        sim._updates[self] = new

    def drive(self, value: Union[LogicVector, int, bool]) -> None:
        """Alias for ``sig.next = value`` usable in expressions."""
        self.next = value

    def force(self, value: Union[LogicVector, int, bool]) -> None:
        """Immediately overwrite the value *without* firing triggers.

        Reserved for testbench initialization and error injection setup;
        normal design code must use :attr:`next`.  The forced value *is*
        recorded to an attached VCD writer (so injected values are
        visible in waveforms), but edge triggers and ``add_monitor``
        callbacks are intentionally bypassed: a force is an
        out-of-band testbench action, not a design event.

        A force also *cancels* any update already queued for this signal
        in the current delta cycle: ``s.next = 5; s.force(0xAA)`` leaves
        the signal at ``0xAA``.  Without the cancellation the queued ``5``
        would silently overwrite the forced value at the next update
        phase, losing the injected stimulus.
        """
        self._value = _coerce_value(value, self.width)
        sim = self._sim
        if sim is not None:
            sim._updates.pop(self, None)
            if sim._vcd is not None and self._vcd_id is not None:
                sim._vcd._record(sim.time, self)

    # ------------------------------------------------------------------
    # Kernel interface
    # ------------------------------------------------------------------
    def _bind(self, sim) -> None:
        self._sim = sim

    def add_monitor(self, callback) -> None:
        """Register ``callback(signal, old, new)`` on every value change."""
        if self._monitors is None:
            self._monitors = []
        self._monitors.append(callback)

    def _normalize_width(self, new: LogicVector) -> LogicVector:
        """Enforce the commit width invariant: stored vectors have
        exactly ``self.width`` bits.

        ``next``/``force`` coerce before scheduling, but raw scheduler
        clients (``sim._updates[sig] = lv``) can hand the update phase a
        vector of a different width; without normalization a same-value
        commit of the wrong width would be stored verbatim, permanently
        corrupting the signal's declared width (VCD rendering and
        slicing key off it).  A vector too wide to truncate losslessly
        raises.
        """
        if new.width < self.width or not (
            (new.value | new.xmask | new.zmask) >> self.width
        ):
            return new.resize(self.width)
        raise SignalWriteError(
            f"value of width {new.width} does not fit signal "
            f"{self.name!r} of width {self.width}"
        )

    def _apply(self, new: LogicVector):
        """Commit a scheduled update; returns (changed, old_value).

        The simulator's update phase inlines this logic; this method is
        the canonical (and test-visible) definition of commit semantics.
        Committed vectors always have exactly ``self.width`` bits (see
        :meth:`_normalize_width`), so the three fields decide a change.
        """
        if new.width != self.width:
            new = self._normalize_width(new)
        old = self._value
        if (
            new.value == old.value
            and new.xmask == old.xmask
            and new.zmask == old.zmask
        ):
            return False, old
        self._value = new
        self.change_count += 1
        return True, old

    def __repr__(self) -> str:
        return f"Signal({self.name}={self._value!r})"
