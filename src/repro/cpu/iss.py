"""The PPC-lite instruction-set simulator.

Executes an assembled word image with cycle-accurate system access:

* one bus-clock cycle per instruction (instructions issue from a
  zero-wait-state instruction memory, as from the 405's I-side BRAM),
* ``lwz``/``stw`` perform real PLB transactions through a master port,
* ``mfdcr``/``mtdcr`` walk the DCR daisy chain (one cycle per hop),
* external interrupts follow PowerPC semantics: when ``MSR.EE`` is set
  and the IRQ line is high, ``SRR0``/``SRR1`` capture the return state,
  EE clears, and control transfers to the vector at ``0x500``; ``rfi``
  restores.  ``wait`` idles the core (consuming no kernel events) until
  the IRQ line rises,
* ``sc`` is the testbench service call: r0 selects the service
  (0 = exit with status r3, 1 = putchar r3, 2 = report value r3).

An X value read from a corrupted bus lands in a register as the
canary ``0xXXXX_DEAD`` pattern and sets :attr:`x_reads` — the ISS-level
equivalent of the HAL driver's "DCR read returned X" anomaly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..kernel import Event, Module, RisingEdge
from ..kernel.logic import LogicVector
from .assembler import Program
from .isa import Instruction, decode

__all__ = ["PpcLiteIss", "IssFatalError"]

WORD_MASK = 0xFFFF_FFFF
IRQ_VECTOR = 0x500
X_CANARY = 0xDEAD_DEAD


class IssFatalError(RuntimeError):
    """Raised inside the simulation when the core hits a fatal condition."""


class PpcLiteIss(Module):
    """The processor model: fetch/decode/execute at one IPC."""

    def __init__(
        self,
        name: str,
        clock,
        port=None,
        dcr=None,
        irq=None,
        imem_words: int = 16 * 1024,
        parent=None,
    ):
        super().__init__(name, parent)
        self.clock = clock
        self.port = port  # PLB master port for data accesses
        self.dcr = dcr  # DcrBus for mtdcr/mfdcr
        self.irq = irq  # 1-bit interrupt request signal (level)
        self.imem = np.zeros(imem_words, dtype=np.uint32)
        self.regs = [0] * 32
        self.pc = 0
        self.lr = 0
        self.ctr = 0
        self.cr_lt = False
        self.cr_gt = False
        self.cr_eq = False
        self.msr_ee = False
        self.srr0 = 0
        self.srr1 = 0
        self.halted = False
        self.exit_code: Optional[int] = None
        self.console: List[str] = []
        self.reported: List[int] = []
        self.instructions_retired = 0
        self.interrupts_taken = 0
        self.x_reads = 0
        self.illegal_instructions = 0
        #: optional extra service handlers: code -> callable(iss)
        self.services: Dict[int, Callable[["PpcLiteIss"], None]] = {}
        self.done = Event(f"{name}.done")
        self._started = False

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------
    def load(self, program: Program) -> None:
        base = program.base_addr // 4
        if base + program.size_words > len(self.imem):
            raise ValueError("program does not fit in instruction memory")
        self.imem[base : base + program.size_words] = np.array(
            program.words, dtype=np.uint32
        )
        self.pc = program.base_addr

    def start(self) -> None:
        """Begin execution (fork the core process)."""
        if self._started:
            raise RuntimeError("ISS already started")
        if self.sim is None:
            raise RuntimeError("ISS not elaborated yet")
        self._started = True
        self.sim.fork(self._run(), f"{self.path}.core", owner=self)

    # ------------------------------------------------------------------
    # Register helpers (r0 reads as zero, PowerPC-style for addi base)
    # ------------------------------------------------------------------
    def _get(self, n: int) -> int:
        return self.regs[n] & WORD_MASK

    def _set(self, n: int, value: int) -> None:
        self.regs[n] = value & WORD_MASK

    def _compare(self, a: int, b: int, signed: bool) -> None:
        if signed:
            a = a - (1 << 32) if a & 0x8000_0000 else a
            b = b - (1 << 32) if b & 0x8000_0000 else b
        self.cr_lt, self.cr_gt, self.cr_eq = a < b, a > b, a == b

    def _cond_met(self, cond: str) -> bool:
        if cond == "always":
            return True
        if cond == "eq":
            return self.cr_eq
        if cond == "ne":
            return not self.cr_eq
        if cond == "lt":
            return self.cr_lt
        if cond == "ge":
            return not self.cr_lt
        if cond == "gt":
            return self.cr_gt
        if cond == "le":
            return not self.cr_gt
        if cond == "ctrnz":
            self.ctr = (self.ctr - 1) & WORD_MASK
            return self.ctr != 0
        raise IssFatalError(f"unknown branch condition {cond!r}")

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------
    def _irq_pending(self) -> bool:
        return self.irq is not None and self.irq.value == 1

    def _take_interrupt(self) -> None:
        self.srr0 = self.pc
        self.srr1 = 1 if self.msr_ee else 0
        self.msr_ee = False
        self.pc = IRQ_VECTOR
        self.interrupts_taken += 1
        tr = self.tracer
        if tr is not None:
            tr.instant("firmware", "interrupt", track="cpu", pc=self.srr0)

    def _run(self):
        clk = self.clock.out
        while not self.halted:
            if self.msr_ee and self._irq_pending():
                self._take_interrupt()
            word = int(self.imem[self.pc // 4])
            try:
                inst = decode(word)
            except ValueError:
                self.illegal_instructions += 1
                raise IssFatalError(
                    f"illegal instruction {word:#010x} at pc={self.pc:#x}"
                )
            next_pc = self.pc + 4
            yield RisingEdge(clk)  # base cost: one cycle per instruction
            next_pc = yield from self._execute(inst, next_pc)
            self.pc = next_pc & WORD_MASK
            self.instructions_retired += 1
        self.done.set(self.sim, self.exit_code)

    def _execute(self, inst: Instruction, next_pc: int):
        m = inst.mnemonic
        g, s = self._get, self._set

        if m == "addi":
            s(inst.rd, (g(inst.ra) if inst.ra else 0) + inst.imm)
        elif m == "addis":
            s(inst.rd, (g(inst.ra) if inst.ra else 0) + (inst.imm << 16))
        elif m == "ori":
            s(inst.rd, g(inst.ra) | inst.imm)
        elif m == "andi":
            s(inst.rd, g(inst.ra) & inst.imm)
        elif m == "xori":
            s(inst.rd, g(inst.ra) ^ inst.imm)
        elif m == "lwz":
            addr = (g(inst.ra) + inst.imm) & WORD_MASK
            value = (yield from self.port.read_burst(addr, 1))[0]
            if isinstance(value, LogicVector):
                self.x_reads += 1
                value = X_CANARY
            s(inst.rd, value)
        elif m == "stw":
            addr = (g(inst.ra) + inst.imm) & WORD_MASK
            yield from self.port.write_burst(addr, [g(inst.rd)])
        elif m == "mfdcr":
            value = yield from self.dcr.read(inst.imm)
            if isinstance(value, LogicVector):
                self.x_reads += 1
                value = X_CANARY
            s(inst.rd, value)
        elif m == "mtdcr":
            yield from self.dcr.write(inst.imm, g(inst.rd))
        elif m == "b":
            next_pc = self.pc + 4 * inst.imm
        elif m == "bl":
            self.lr = self.pc + 4
            next_pc = self.pc + 4 * inst.imm
        elif m == "bc":
            if self._cond_met(inst.cond):
                next_pc = self.pc + 4 * inst.imm
        elif m in ("cmpwi", "cmplwi"):
            self._compare(g(inst.ra), inst.imm & WORD_MASK, m == "cmpwi")
        elif m in ("cmpw", "cmplw"):
            self._compare(g(inst.ra), g(inst.rb), m == "cmpw")
        elif m == "add":
            s(inst.rd, g(inst.ra) + g(inst.rb))
        elif m == "sub":
            s(inst.rd, g(inst.ra) - g(inst.rb))
        elif m == "and":
            s(inst.rd, g(inst.ra) & g(inst.rb))
        elif m == "or":
            s(inst.rd, g(inst.ra) | g(inst.rb))
        elif m == "xor":
            s(inst.rd, g(inst.ra) ^ g(inst.rb))
        elif m == "slw":
            s(inst.rd, g(inst.ra) << (g(inst.rb) & 31))
        elif m == "srw":
            s(inst.rd, g(inst.ra) >> (g(inst.rb) & 31))
        elif m == "sraw":
            a = g(inst.ra)
            a = a - (1 << 32) if a & 0x8000_0000 else a
            s(inst.rd, a >> (g(inst.rb) & 31))
        elif m == "mullw":
            s(inst.rd, g(inst.ra) * g(inst.rb))
        elif m == "divwu":
            b = g(inst.rb)
            s(inst.rd, g(inst.ra) // b if b else 0)
        elif m == "mtlr":
            self.lr = g(inst.ra)
        elif m == "mflr":
            s(inst.rd, self.lr)
        elif m == "mtctr":
            self.ctr = g(inst.ra)
        elif m == "mfctr":
            s(inst.rd, self.ctr)
        elif m == "blr":
            next_pc = self.lr
        elif m == "rfi":
            self.msr_ee = bool(self.srr1 & 1)
            next_pc = self.srr0
        elif m == "wait":
            # idle (event-free) until the interrupt line rises, then
            # vector immediately if enabled; execution resumes *after*
            # the wait on rfi
            if not self._irq_pending():
                yield RisingEdge(self.irq)
            if self.msr_ee:
                self.pc = next_pc
                self._take_interrupt()
                next_pc = self.pc
        elif m == "wrteei0":
            self.msr_ee = False
        elif m == "wrteei1":
            self.msr_ee = True
        elif m in ("nop", "sync"):
            pass
        elif m == "sc":
            self._syscall()
        elif m == "halt":
            self.halted = True
        else:  # pragma: no cover - decode() only yields known mnemonics
            raise IssFatalError(f"unimplemented mnemonic {m!r}")
        return next_pc

    def _syscall(self) -> None:
        code = self._get(0)
        arg = self._get(3)
        tr = self.tracer
        if tr is not None:
            tr.instant("firmware", "service-call", track="cpu", code=code)
        if code == 0:
            self.exit_code = arg
            self.halted = True
        elif code == 1:
            self.console.append(chr(arg & 0xFF))
        elif code == 2:
            self.reported.append(arg)
        elif code in self.services:
            self.services[code](self)
        else:
            raise IssFatalError(f"unknown service call {code} at pc={self.pc:#x}")
