"""Device Control Register (DCR) bus — a daisy-chained register ring.

The DCR bus connects the processor to small control/status register
blocks.  Physically it is a *daisy chain*: the command shifts from node
to node around a ring, each node either answering (address hit) or
forwarding the command unchanged, and the response shifts onward back
to the master.  Latency is therefore one bus cycle per hop.

The chain topology is the point of modeling it faithfully: the paper's
DUT had to move the engines' DCR registers *out of* the reconfigurable
region, because a node inside the region emits X during reconfiguration
— and an X anywhere in the ring corrupts every command passing through,
i.e. "breaks the DCR daisy chain".  A :class:`DcrNode` can therefore be
marked *corrupted* (by the ReSim error injector) in which case it
forwards X instead of the command, and reads through it return X.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from dataclasses import dataclass

from ..kernel import Module, RisingEdge, xbits
from ..kernel.logic import LogicVector

__all__ = [
    "DcrBus",
    "DcrNode",
    "DcrRegisterFile",
    "DcrError",
    "DcrTimeout",
    "DcrCommandRecord",
]

WORD_MASK = 0xFFFF_FFFF


class DcrError(RuntimeError):
    pass


class DcrTimeout(DcrError):
    """A DCR command never completed — the daisy chain is broken."""


class DcrNode(Module):
    """Base class for one register block on the daisy chain."""

    def __init__(self, name: str, base: int, size: int, parent=None):
        super().__init__(name, parent)
        self.base = base
        self.size = size
        self._corrupted = False

    # -- chain corruption (driven by the ReSim error injector) ----------
    def set_corrupted(self, corrupted: bool) -> None:
        self._corrupted = corrupted

    @property
    def is_corrupted(self) -> bool:
        return self._corrupted

    def owns(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    # -- register access (subclasses override) --------------------------
    def dcr_read(self, addr: int) -> int:
        raise NotImplementedError

    def dcr_write(self, addr: int, data: int) -> None:
        raise NotImplementedError


class DcrRegisterFile(DcrNode):
    """A generic DCR node backed by named registers.

    Registers are declared with :meth:`add_register`; optional callbacks
    observe writes (``on_write(value)``) and compute reads
    (``on_read() -> value``), which lets device models hang control
    behaviour off their register file.
    """

    def __init__(self, name: str, base: int, size: int, parent=None):
        super().__init__(name, base, size, parent)
        self._regs: Dict[int, int] = {}
        self._names: Dict[str, int] = {}
        self._on_write: Dict[int, Callable[[int], None]] = {}
        self._on_read: Dict[int, Callable[[], int]] = {}

    def add_register(
        self,
        name: str,
        offset: int,
        init: int = 0,
        on_write: Optional[Callable[[int], None]] = None,
        on_read: Optional[Callable[[], int]] = None,
    ) -> int:
        """Declare register ``name`` at ``base+offset``; returns its address."""
        if offset >= self.size:
            raise ValueError(
                f"register offset {offset} outside node size {self.size}"
            )
        addr = self.base + offset
        if offset in self._regs:
            raise ValueError(f"register offset {offset} already declared")
        self._regs[offset] = init & WORD_MASK
        self._names[name] = offset
        if on_write:
            self._on_write[offset] = on_write
        if on_read:
            self._on_read[offset] = on_read
        return addr

    def addr_of(self, name: str) -> int:
        return self.base + self._names[name]

    def peek(self, name: str) -> int:
        """Backdoor read (no bus traffic) for testbenches."""
        return self._regs[self._names[name]]

    def poke(self, name: str, value: int) -> None:
        """Backdoor write (no bus traffic, no callbacks)."""
        self._regs[self._names[name]] = value & WORD_MASK

    def dcr_read(self, addr: int) -> int:
        offset = addr - self.base
        if offset not in self._regs:
            raise DcrError(f"{self.path}: no register at DCR {addr:#x}")
        if offset in self._on_read:
            self._regs[offset] = self._on_read[offset]() & WORD_MASK
        return self._regs[offset]

    def dcr_write(self, addr: int, data: int) -> None:
        offset = addr - self.base
        if offset not in self._regs:
            raise DcrError(f"{self.path}: no register at DCR {addr:#x}")
        self._regs[offset] = data & WORD_MASK
        if offset in self._on_write:
            self._on_write[offset](data & WORD_MASK)


@dataclass(frozen=True)
class DcrCommandRecord:
    """One completed daisy-chain command, as seen by bus observers."""

    start_ps: int
    end_ps: int
    addr: int
    write: bool
    ok: bool


class DcrBus(Module):
    """The daisy-chain master and ring walker.

    ``read``/``write`` are generators (one bus cycle per chain hop) used
    by the CPU model.  A corrupted node poisons the command as it passes
    through: reads return X and writes are lost *for every node at or
    after the corruption point in the ring*, which is exactly how a real
    broken daisy chain fails.
    """

    def __init__(self, name: str, clock, parent=None):
        super().__init__(name, parent)
        self.clock = clock
        self.nodes: List[DcrNode] = []
        self.sig_cmd = self.signal("dcr_cmd", 32)
        self.sig_ack = self.signal("dcr_ack", 1)
        self.chain_break_observed = 0
        self._observers: List = []

    def add_observer(self, callback) -> None:
        """Register ``callback(DcrCommandRecord)`` for completed commands.

        The list is empty unless something (e.g. the tracing layer)
        registers; an un-observed bus pays one truthiness check per
        command.
        """
        self._observers.append(callback)

    def attach(self, node: DcrNode) -> DcrNode:
        """Append ``node`` at the end of the daisy chain."""
        for existing in self.nodes:
            if node.base < existing.base + existing.size and existing.base < node.base + node.size:
                raise ValueError(
                    f"DCR range of {node.name} overlaps {existing.name}"
                )
        self.nodes.append(node)
        return node

    def chain_order(self) -> List[str]:
        return [n.name for n in self.nodes]

    def _walk(self, addr: int, write: bool, data: Optional[int]):
        """Shift a command around the ring; returns (value, ok)."""
        clk = self.clock.out
        start_ps = self.sim.time if self.sim is not None else 0
        poisoned = False
        result: Union[int, LogicVector, None] = None
        hit = False
        for node in self.nodes:
            yield RisingEdge(clk)  # one hop per cycle
            if poisoned:
                # command is garbage by the time it arrives here
                self.sig_cmd.next = xbits(32)
                continue
            if node.is_corrupted:
                poisoned = True
                self.sig_cmd.next = xbits(32)
                self.chain_break_observed += 1
                continue
            self.sig_cmd.next = addr & WORD_MASK
            if node.owns(addr):
                hit = True
                if write:
                    node.dcr_write(addr, data)
                else:
                    result = node.dcr_read(addr)
        # response hop back to master; the response shifts through the
        # remainder of the ring, so corruption anywhere poisons it
        yield RisingEdge(clk)
        if poisoned or not hit:
            self._notify_observers(start_ps, addr, write, ok=False)
            return xbits(32), False
        self.sig_ack.next = 1
        yield RisingEdge(clk)
        self.sig_ack.next = 0
        self._notify_observers(start_ps, addr, write, ok=True)
        if write:
            return 0, True
        return result, True

    def _notify_observers(
        self, start_ps: int, addr: int, write: bool, ok: bool
    ) -> None:
        if not self._observers:
            return
        record = DcrCommandRecord(
            start_ps=start_ps,
            end_ps=self.sim.time if self.sim is not None else start_ps,
            addr=addr,
            write=write,
            ok=ok,
        )
        for cb in self._observers:
            cb(record)

    def read(self, addr: int):
        """``value = yield from dcr.read(addr)``; X-vector if chain broken."""
        value, ok = yield from self._walk(addr, write=False, data=None)
        return value

    def write(self, addr: int, data: int):
        """``ok = yield from dcr.write(addr, data)``."""
        _, ok = yield from self._walk(addr, write=True, data=data)
        return ok
