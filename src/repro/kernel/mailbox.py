"""Transaction-level mailboxes between processes.

Processes can exchange whole transactions rather than individual
wires: the firmware's compute thread hands each finished frame to its
drawing thread through one.  A :class:`Mailbox` is an unbounded FIFO,
so a put never blocks; ``get`` is a generator that blocks while the
mailbox is empty, mirroring the SystemC/SystemVerilog TLM channels the
paper's testbench uses.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, TypeVar

from .events import Event

T = TypeVar("T")

__all__ = ["Mailbox", "MailboxEmpty"]


class MailboxEmpty(RuntimeError):
    pass


class Mailbox(Generic[T]):
    """An unbounded FIFO channel between processes.

    ``get()`` returns a generator to be ``yield from``-ed inside a
    process; ``try_get()``/``try_put()`` are non-blocking.
    """

    def __init__(self, sim, name: str = "mailbox"):
        self._sim = sim
        self.name = name
        self._items: Deque[T] = deque()
        self._put_event = Event(f"{name}.put")

    def try_put(self, item: T) -> None:
        """Append ``item``; never blocks, as the mailbox is unbounded."""
        self._items.append(item)
        self._put_event.set(self._sim, item)

    def try_get(self) -> T:
        if not self._items:
            raise MailboxEmpty(f"mailbox {self.name!r} is empty")
        return self._items.popleft()

    def get(self):
        """``item = yield from mbox.get()`` — blocks while empty."""
        while not self._items:
            yield self._put_event.wait()
        return self.try_get()

    def __repr__(self) -> str:
        return f"Mailbox({self.name!r}, {len(self._items)} queued)"
