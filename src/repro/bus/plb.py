"""Processor Local Bus (PLB) — the arbitrated system bus of the DUT.

A cycle-accurate model of a multi-master, single-segment PLB:

* masters request the bus through :class:`PlbMasterPort`; a central
  arbiter grants one transaction at a time by fixed priority (ties
  broken round-robin), consuming one bus-clock cycle per arbitration,
* address decode selects the slave; the slave contributes wait states,
* data moves one 32-bit word per cycle (single beats or bursts up to
  :attr:`PlbBus.MAX_BURST` beats, matching the 16-word PLB line limit).

The bus drives observable signals (``addr``, ``data``, ``valid``,
``master``) every beat, so bus traffic contributes signal activity to
the kernel's Table II accounting exactly as engine IO toggling does in
the paper's ModelSim profile.

Point-to-point vs shared mode
-----------------------------
The original AutoVision IcapCTRL used a *point-to-point* (NPI-style)
connection and was re-integrated onto the shared PLB — introducing the
paper's ``bug.dpr.4``.  A master port configured with
``arbitrated=False`` bypasses the arbiter, which is correct when it is
the only master on a dedicated segment but a protocol violation on a
shared bus: the bus detects the collision, corrupts the transfer (reads
return X) and counts a :class:`BusProtocolError`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..kernel import Event, Module, RisingEdge, xbits

__all__ = [
    "PlbBus",
    "PlbMasterPort",
    "PlbSlave",
    "PlbTransaction",
    "BusProtocolError",
]

WORD_BYTES = 4
WORD_MASK = 0xFFFF_FFFF


class BusProtocolError(RuntimeError):
    pass


class PlbSlave:
    """Interface every PLB slave implements (word-granular)."""

    #: extra wait states the slave inserts before its first data beat
    read_wait_states: int = 0
    write_wait_states: int = 0

    def plb_read(self, addr: int) -> int:
        raise NotImplementedError

    def plb_write(self, addr: int, data: int) -> None:
        raise NotImplementedError


class PlbTransaction:
    """One bus transfer: request → grant → address → data beats → done."""

    __slots__ = (
        "master",
        "is_read",
        "addr",
        "burst",
        "wdata",
        "rdata",
        "done",
        "error",
        "arbitrated",
        "issued_at",
        "completed_at",
    )

    def __init__(
        self,
        master: "PlbMasterPort",
        is_read: bool,
        addr: int,
        burst: int,
        wdata: Optional[List[int]] = None,
        arbitrated: bool = True,
    ):
        self.master = master
        self.is_read = is_read
        self.addr = addr
        self.burst = burst
        self.wdata = wdata
        self.rdata: List[object] = []
        self.done = Event("plb.done")
        self.error: Optional[str] = None
        self.arbitrated = arbitrated
        self.issued_at: Optional[int] = None
        self.completed_at: Optional[int] = None

    def __repr__(self) -> str:
        kind = "R" if self.is_read else "W"
        return (
            f"PlbTransaction({kind} {self.master.name} @{self.addr:#010x} "
            f"x{self.burst})"
        )


class PlbMasterPort:
    """A master's handle onto the bus.

    All transfer helpers are generators to ``yield from`` inside a
    process; they block for the cycle-accurate duration of the transfer.
    """

    def __init__(self, bus: "PlbBus", name: str, priority: int, arbitrated: bool):
        self.bus = bus
        self.name = name
        self.priority = priority
        self.arbitrated = arbitrated

    def read_burst(self, addr: int, count: int):
        txn = PlbTransaction(self, True, addr, count, arbitrated=self.arbitrated)
        yield from self.bus._execute(txn)
        return txn.rdata

    def write_burst(self, addr: int, words: List[int]):
        txn = PlbTransaction(
            self, False, addr, len(words), list(words), arbitrated=self.arbitrated
        )
        yield from self.bus._execute(txn)
        return txn

    # -- block transfers (chunked into MAX_BURST lines) ------------------
    def read_block(self, addr: int, count: int):
        """Read ``count`` words as a sequence of maximal bursts."""
        out: List[object] = []
        max_burst = self.bus.MAX_BURST
        while count > 0:
            n = min(count, max_burst)
            words = yield from self.read_burst(addr, n)
            out.extend(words)
            addr += n * WORD_BYTES
            count -= n
        return out

    def write_block(self, addr: int, words):
        """Write a word sequence as maximal bursts."""
        words = [int(w) for w in words]
        max_burst = self.bus.MAX_BURST
        offset = 0
        while offset < len(words):
            chunk = words[offset : offset + max_burst]
            yield from self.write_burst(addr + offset * WORD_BYTES, chunk)
            offset += len(chunk)

    def __repr__(self) -> str:
        return f"PlbMasterPort({self.name!r}, prio={self.priority})"


class PlbBus(Module):
    """The arbitrated PLB segment."""

    #: PLB line transfer limit (16 words)
    MAX_BURST = 16
    #: arbitration + address phase, in bus cycles
    ARB_CYCLES = 1
    ADDR_CYCLES = 1

    def __init__(self, name: str, clock, parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.clock = clock
        self.masters: List[PlbMasterPort] = []
        self.slaves: List[Tuple[int, int, PlbSlave]] = []  # (base, size, slave)
        # Observable bus signals (drive activity + waveforms)
        self.sig_addr = self.signal("pa_addr", 32)
        self.sig_data = self.signal("pa_data", 32)
        self.sig_valid = self.signal("pa_valid", 1)
        self.sig_rnw = self.signal("pa_rnw", 1)
        self.sig_master = self.signal("pa_master", 4)
        self._busy = False
        self._pending: List[PlbTransaction] = []
        self._request = Event(f"{name}.request")
        self._rr_index = 0  # round-robin pointer among equal priorities
        self.protocol_errors = 0
        self.total_beats = 0
        self._observers: List = []
        self.process(self._arbiter, "arbiter")

    def add_observer(self, callback) -> None:
        """Register ``callback(txn)`` invoked as each transfer completes."""
        self._observers.append(callback)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach_master(
        self, name: str, priority: int = 0, arbitrated: bool = True
    ) -> PlbMasterPort:
        port = PlbMasterPort(self, name, priority, arbitrated)
        self.masters.append(port)
        return port

    def attach_slave(self, slave: PlbSlave, base: int, size: int) -> None:
        """Map ``slave`` at ``[base, base+size)`` byte addresses."""
        if base % WORD_BYTES or size % WORD_BYTES:
            raise ValueError("PLB mappings must be word aligned")
        for b, s, _ in self.slaves:
            if base < b + s and b < base + size:
                raise ValueError(
                    f"slave mapping [{base:#x},{base + size:#x}) overlaps "
                    f"existing [{b:#x},{b + s:#x})"
                )
        self.slaves.append((base, size, slave))

    def decode(self, addr: int) -> Tuple[PlbSlave, int]:
        for base, size, slave in self.slaves:
            if base <= addr < base + size:
                return slave, addr - base
        raise BusProtocolError(f"PLB address {addr:#010x} does not decode")

    # ------------------------------------------------------------------
    # Transfer execution
    # ------------------------------------------------------------------
    def _execute(self, txn: PlbTransaction):
        """Generator used by master ports: submit and wait for completion."""
        if txn.burst < 1 or txn.burst > self.MAX_BURST:
            raise BusProtocolError(
                f"burst length {txn.burst} outside 1..{self.MAX_BURST}"
            )
        if txn.addr % WORD_BYTES:
            raise BusProtocolError(f"unaligned PLB address {txn.addr:#010x}")
        txn.issued_at = self.sim.time if self.sim else None
        if not txn.arbitrated:
            # Point-to-point style access: legal only if this master is
            # alone on the segment; otherwise a protocol violation.
            yield from self._transfer(txn, collision=self._detect_collision(txn))
        else:
            self._pending.append(txn)
            self._request.set(self.sim)
            yield txn.done.wait()
        txn.completed_at = self.sim.time if self.sim else None

    def _detect_collision(self, txn: PlbTransaction) -> bool:
        return len(self.masters) > 1 or self._busy

    def _arbiter(self):
        clk = self.clock.out
        edge = RisingEdge(clk)  # reused: single-shot triggers re-prime cleanly
        while True:
            if not self._pending:
                yield self._request.wait()
                continue
            # arbitration cycle
            yield edge
            txn = self._select()
            yield from self._transfer(txn, collision=False)
            txn.done.set(self.sim)

    def _select(self) -> PlbTransaction:
        best_i = 0
        best = self._pending[0]
        for i, txn in enumerate(self._pending[1:], start=1):
            if txn.master.priority > best.master.priority:
                best, best_i = txn, i
        # round-robin among same priority: rotate start point
        same = [
            (i, t)
            for i, t in enumerate(self._pending)
            if t.master.priority == best.master.priority
        ]
        if len(same) > 1:
            self._rr_index = (self._rr_index + 1) % len(same)
            best_i, best = same[self._rr_index % len(same)]
        self._pending.pop(best_i)
        return best

    def _transfer(self, txn: PlbTransaction, collision: bool):
        """Run address + data phases on the bus clock."""
        clk = self.clock.out
        self._busy = True
        try:
            slave, offset = self.decode(txn.addr)
        except BusProtocolError:
            self._busy = False
            txn.error = "decode"
            self.protocol_errors += 1
            txn.rdata = [xbits(32)] * txn.burst if txn.is_read else []
            return
        # one trigger for the whole transfer: single-shot Edge triggers
        # re-prime cleanly, and re-yielding the same object is the cheap
        # path under both execution backends
        edge = RisingEdge(clk)
        # address phase
        self.sig_addr.next = txn.addr & WORD_MASK
        self.sig_rnw.next = 1 if txn.is_read else 0
        self.sig_master.next = self.masters.index(txn.master) & 0xF
        self.sig_valid.next = 1
        yield edge
        # slave wait states
        waits = slave.read_wait_states if txn.is_read else slave.write_wait_states
        for _ in range(waits):
            yield edge
        # data phase, one word per cycle (attribute lookups hoisted:
        # this loop is the bandwidth-limiting path of every DMA model)
        if collision:
            self.protocol_errors += 1
            txn.error = "collision"
        sig_data = self.sig_data
        if txn.is_read:
            rdata = txn.rdata
            read = slave.plb_read
            for beat in range(txn.burst):
                if collision:
                    value: object = xbits(32)
                else:
                    value = read(offset + beat * WORD_BYTES) & WORD_MASK
                rdata.append(value)
                sig_data.next = value
                yield edge
        else:
            wdata = txn.wdata
            write = slave.plb_write
            for beat in range(txn.burst):
                data = wdata[beat] & WORD_MASK
                if not collision:
                    write(offset + beat * WORD_BYTES, data)
                sig_data.next = data
                yield edge
        self.sig_valid.next = 0
        self._busy = False
        self.total_beats += txn.burst
        if self._observers:
            txn.completed_at = self.sim.time if self.sim else None
            for cb in self._observers:
                cb(txn)
