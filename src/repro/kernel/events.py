"""Triggers and synchronization primitives for the simulation kernel.

Processes are Python generators that ``yield`` *triggers*; the scheduler
resumes a process when the trigger it is waiting on fires.  The trigger
vocabulary follows established RTL-simulation practice (ModelSim /
cocotb): timers, signal edges, named events, and combinators.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .process import Process
    from .signal import Signal

__all__ = [
    "Trigger",
    "Timer",
    "Edge",
    "RisingEdge",
    "FallingEdge",
    "Event",
    "EventTrigger",
    "First",
    "Join",
    "NullTrigger",
    "PS",
    "NS",
    "US",
    "MS",
]

# Simulation time is an integer number of picoseconds.
PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000


class Trigger:
    """Base class for anything a process can wait on."""

    __slots__ = ("_waiters",)

    def __init__(self) -> None:
        self._waiters: List["Process"] = []

    def _prime(self, sim, process: "Process") -> None:
        """Arm this trigger so ``process`` resumes when it fires."""
        self._waiters.append(process)

    def _unprime(self, process: "Process") -> None:
        try:
            self._waiters.remove(process)
        except ValueError:
            pass

    def _fire(self, sim) -> None:
        """Wake every waiting process.  Called by the scheduler."""
        waiters = self._waiters
        if len(waiters) == 1:
            # dominant case: reuse the list instead of allocating
            proc = waiters[0]
            waiters.clear()
            if proc.__class__ is _FirstWaiter:
                sim._wake(proc, self)
            else:
                sim._ready.append((proc, self))
            return
        self._waiters = []
        append = sim._ready.append
        for proc in waiters:
            if proc.__class__ is _FirstWaiter:
                sim._wake(proc, self)
            else:
                append((proc, self))


class Timer(Trigger):
    """Fires after a fixed simulated delay (integer picoseconds)."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        self._waiters = []
        if delay < 0:
            raise ValueError(f"Timer delay must be >= 0, got {delay}")
        self.delay = delay if type(delay) is int else int(delay)

    def _prime(self, sim, process: "Process") -> None:
        # inlined Trigger._prime + a push onto the timed queue (hot path)
        self._waiters.append(process)
        sim._seq += 1
        heappush(sim._timed, (sim.time + self.delay, sim._seq, self))

    def __repr__(self) -> str:
        return f"Timer({self.delay}ps)"


def _list_discard(lst: list, item) -> None:
    """Remove ``item`` from ``lst`` if present (identity/equality)."""
    try:
        lst.remove(item)
    except ValueError:
        pass


class Edge(Trigger):
    """Fires on any value change of a signal.

    The three edge kinds keep their primed-trigger lists in dedicated
    :class:`~repro.kernel.signal.Signal` slots (``_w_any`` / ``_w_rise``
    / ``_w_fall``); each subclass addresses its slot directly so the
    prime/fire hot path does no kind dispatch.  Plain lists beat sets
    here: they hold zero or one entry in virtually every design, so an
    append/remove pair is cheaper than hashing.
    """

    __slots__ = ("signal",)

    _kind = "any"

    def __init__(self, signal: "Signal"):
        self._waiters = []
        self.signal = signal

    def _prime(self, sim, process: "Process") -> None:
        self._waiters.append(process)
        self.signal._w_any.append(self)

    def _unprime(self, process: "Process") -> None:
        super()._unprime(process)
        if not self._waiters:
            _list_discard(self.signal._w_any, self)

    def _fire(self, sim) -> None:
        _list_discard(self.signal._w_any, self)
        waiters = self._waiters
        if len(waiters) == 1:
            proc = waiters[0]
            waiters.clear()
            if proc.__class__ is _FirstWaiter:
                sim._wake(proc, self)
            else:
                sim._ready.append((proc, self))
            return
        self._waiters = []
        append = sim._ready.append
        for proc in waiters:
            if proc.__class__ is _FirstWaiter:
                sim._wake(proc, self)
            else:
                append((proc, self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.signal.name})"


class RisingEdge(Edge):
    """Fires on a transition to 1 (posedge)."""

    __slots__ = ()
    _kind = "rise"

    def _prime(self, sim, process: "Process") -> None:
        self._waiters.append(process)
        self.signal._w_rise.append(self)

    def _unprime(self, process: "Process") -> None:
        Trigger._unprime(self, process)
        if not self._waiters:
            _list_discard(self.signal._w_rise, self)

    def _fire(self, sim) -> None:
        _list_discard(self.signal._w_rise, self)
        waiters = self._waiters
        if len(waiters) == 1:
            proc = waiters[0]
            waiters.clear()
            if proc.__class__ is _FirstWaiter:
                sim._wake(proc, self)
            else:
                sim._ready.append((proc, self))
            return
        self._waiters = []
        append = sim._ready.append
        for proc in waiters:
            if proc.__class__ is _FirstWaiter:
                sim._wake(proc, self)
            else:
                append((proc, self))


class FallingEdge(Edge):
    """Fires on a transition to 0 (negedge)."""

    __slots__ = ()
    _kind = "fall"

    def _prime(self, sim, process: "Process") -> None:
        self._waiters.append(process)
        self.signal._w_fall.append(self)

    def _unprime(self, process: "Process") -> None:
        Trigger._unprime(self, process)
        if not self._waiters:
            _list_discard(self.signal._w_fall, self)

    def _fire(self, sim) -> None:
        _list_discard(self.signal._w_fall, self)
        waiters = self._waiters
        if len(waiters) == 1:
            proc = waiters[0]
            waiters.clear()
            if proc.__class__ is _FirstWaiter:
                sim._wake(proc, self)
            else:
                sim._ready.append((proc, self))
            return
        self._waiters = []
        append = sim._ready.append
        for proc in waiters:
            if proc.__class__ is _FirstWaiter:
                sim._wake(proc, self)
            else:
                append((proc, self))


class Event:
    """A named, re-armable notification (cf. SystemVerilog ``event``).

    Processes wait via :meth:`wait`, producers call :meth:`set`.  Unlike
    a :class:`Trigger`, an ``Event`` is persistent and can carry data.
    """

    __slots__ = ("name", "data", "_trigger", "fired_count")

    def __init__(self, name: str = "event"):
        self.name = name
        self.data = None
        self.fired_count = 0
        self._trigger: Optional[EventTrigger] = None

    def wait(self) -> "EventTrigger":
        if self._trigger is None or self._trigger._spent:
            self._trigger = EventTrigger(self)
        return self._trigger

    def set(self, sim, data=None) -> None:
        """Fire the event, waking all current waiters in the next delta."""
        self.data = data
        self.fired_count += 1
        if self._trigger is not None and not self._trigger._spent:
            trig, self._trigger = self._trigger, None
            trig._spent = True
            sim._schedule_delta_trigger(trig)

    def __repr__(self) -> str:
        return f"Event({self.name!r})"


class EventTrigger(Trigger):
    __slots__ = ("event", "_spent")

    def __init__(self, event: Event):
        super().__init__()
        self.event = event
        self._spent = False

    def __repr__(self) -> str:
        return f"EventTrigger({self.event.name!r})"


class First(Trigger):
    """Fires when the first of several sub-triggers fires.

    The value sent into the waiting process is the sub-trigger that won,
    so the process can dispatch on it::

        fired = yield First(RisingEdge(irq), Timer(1000 * NS))
        if isinstance(fired, Timer): ...  # timeout path
    """

    __slots__ = ("triggers", "winner")

    def __init__(self, *triggers: Trigger):
        super().__init__()
        if not triggers:
            raise ValueError("First() needs at least one trigger")
        self.triggers = triggers
        self.winner: Optional[Trigger] = None

    def _prime(self, sim, process: "Process") -> None:
        super()._prime(sim, process)
        for trig in self.triggers:
            trig._prime(sim, _FirstWaiter(self, trig, process))

    def _unprime(self, process: "Process") -> None:
        super()._unprime(process)


class _FirstWaiter:
    """Pseudo-process used by :class:`First` to observe sub-triggers."""

    __slots__ = ("first", "trigger", "process")

    def __init__(self, first: First, trigger: Trigger, process: "Process"):
        self.first = first
        self.trigger = trigger
        self.process = process


class Join(Trigger):
    """Fires when a forked process terminates."""

    __slots__ = ("process",)

    def __init__(self, process: "Process"):
        super().__init__()
        self.process = process

    def _prime(self, sim, waiter: "Process") -> None:
        if self.process.finished:
            super()._prime(sim, waiter)
            sim._schedule_delta_trigger(self)
        else:
            super()._prime(sim, waiter)
            self.process._joiners.append(self)

    def __repr__(self) -> str:
        return f"Join({self.process.name})"


class NullTrigger(Trigger):
    """Fires in the next delta cycle — a 'yield control' primitive."""

    __slots__ = ()

    def _prime(self, sim, process: "Process") -> None:
        super()._prime(sim, process)
        sim._schedule_delta_trigger(self)

    def __repr__(self) -> str:
        return "NullTrigger()"
