"""Tests for the PPC-lite instruction-set simulator."""

import pytest

from repro.bus import DcrBus, DcrRegisterFile, InterruptController, PlbBus, PlbMemory
from repro.cpu import PpcLiteIss, assemble
from repro.cpu.iss import X_CANARY
from repro.kernel import Clock, MHz, Module, ProcessError, Simulator


class IssBench:
    def __init__(self):
        self.sim = Simulator()
        self.top = Module("top")
        self.clk = Clock("clk", MHz(100), parent=self.top)
        self.bus = PlbBus("plb", self.clk, parent=self.top)
        self.mem = PlbMemory("mem", 64 * 1024, parent=self.top)
        self.bus.attach_slave(self.mem, base=0, size=64 * 1024)
        self.dcr = DcrBus("dcr", self.clk, parent=self.top)
        self.node = DcrRegisterFile("node", base=0x40, size=16, parent=self.top)
        self.node.add_register("CTRL", 0, init=0)
        self.node.add_register("DATA", 1, init=0x1234)
        self.dcr.attach(self.node)
        self.intc = InterruptController("intc", base=0x80, clock=self.clk, parent=self.top)
        self.dcr.attach(self.intc)
        self.req = self.top.signal("req", 1, init=0)
        self.intc.connect_source("dev", self.req)
        self.iss = PpcLiteIss(
            "cpu",
            self.clk,
            port=self.bus.attach_master("cpu"),
            dcr=self.dcr,
            irq=self.intc.irq,
            parent=self.top,
        )
        self.sim.add_module(self.top)

    def run_program(self, source: str, timeout_us: int = 2000) -> PpcLiteIss:
        self.iss.load(assemble(source))
        self.iss.start()
        self.sim.run_until_event(self.iss.done, timeout=timeout_us * 1_000_000)
        return self.iss


def run(source, timeout_us=2000):
    bench = IssBench()
    bench.run_program(source, timeout_us)
    return bench


EXIT = """
        li r0, 0          # service: exit
        sc
"""


def test_arithmetic_and_exit():
    bench = run(
        """
        addi r3, r0, 5
        addi r4, r0, 7
        add  r3, r3, r4
        li r0, 0
        sc
        """
    )
    assert bench.iss.halted
    assert bench.iss.exit_code == 12


def test_loop_with_ctr():
    bench = run(
        """
        li r3, 0
        li r4, 10
        mtctr r4
    loop:
        addi r3, r3, 3
        bdnz loop
        li r0, 0
        sc
        """
    )
    assert bench.iss.exit_code == 30


def test_subroutine_call_and_return():
    bench = run(
        """
        li r3, 1
        bl double
        bl double
        li r0, 0
        sc
    double:
        add r3, r3, r3
        blr
        """
    )
    assert bench.iss.exit_code == 4


def test_memory_load_store_via_plb():
    bench = run(
        """
        li r3, 0xBEEF
        li r4, 0x100
        stw r3, 0(r4)
        lwz r5, 0(r4)
        mr r3, r5
        li r0, 0
        sc
        """
    )
    assert bench.iss.exit_code == 0xBEEF
    assert bench.mem.plb_read(0x100) == 0xBEEF


def test_dcr_access():
    bench = run(
        """
        mfdcr r3, 0x41      # node.DATA = 0x1234
        mtdcr r3, 0x40      # copy into node.CTRL
        li r3, 0
        li r0, 0
        sc
        """
    )
    assert bench.iss.exit_code == 0
    assert bench.node.peek("CTRL") == 0x1234


def test_console_and_report_services():
    bench = run(
        """
        li r3, 72           # 'H'
        li r0, 1
        sc
        li r3, 105          # 'i'
        sc
        li r3, 42
        li r0, 2
        sc
        li r0, 0
        li r3, 0
        sc
        """
    )
    assert "".join(bench.iss.console) == "Hi"
    assert bench.iss.reported == [42]


def test_signed_compare_branches():
    bench = run(
        """
        li r3, -5
        cmpwi r3, 3
        blt is_less
        li r3, 0
        li r0, 0
        sc
    is_less:
        li r3, 1
        li r0, 0
        sc
        """
    )
    assert bench.iss.exit_code == 1


def test_unsigned_compare():
    bench = run(
        """
        li r3, -5            # 0xFFFFFFFB unsigned: huge
        cmplwi r3, 3
        bgt is_greater
        li r3, 0
        li r0, 0
        sc
    is_greater:
        li r3, 1
        li r0, 0
        sc
        """
    )
    assert bench.iss.exit_code == 1


def test_interrupt_wait_isr_rfi():
    bench = IssBench()
    source = """
        .equ INTC_ISR, 0x80
        .equ INTC_IER, 0x81
        b main
        .org 0x500
    isr:
        mfdcr r6, INTC_ISR    # read pending
        mtdcr r6, INTC_ISR    # acknowledge
        addi r7, r7, 1        # count interrupts
        rfi
        .org 0x600
    main:
        li r6, 1
        mtdcr r6, INTC_IER    # enable source 0
        wrteei1
        wait                  # sleep until the device fires
        mr r3, r7
        li r0, 0
        sc
    """

    def device():
        from repro.kernel import Timer

        yield Timer(5_000_000)  # 5 us
        bench.req.next = 1
        yield Timer(20_000)  # short pulse: the INTC latches it
        bench.req.next = 0

    bench.sim.fork(device())
    bench.run_program(source)
    assert bench.iss.exit_code == 1
    assert bench.iss.interrupts_taken == 1
    # woke up after the device fired
    assert bench.sim.time >= 5_000_000


def test_x_read_produces_canary():
    bench = run(
        """
        li r4, 0x20000      # beyond the 64KB memory: decode error -> X
        lwz r3, 0(r4)
        li r0, 0
        sc
        """
    )
    assert bench.iss.x_reads == 1
    assert bench.iss.exit_code == X_CANARY


def test_illegal_instruction_fatal():
    bench = IssBench()
    prog = assemble("nop")
    prog.words[0] = 0xFFFF_FFFF
    bench.iss.load(prog)
    bench.iss.start()
    with pytest.raises(ProcessError):
        bench.sim.run(until=1_000_000)


def test_unknown_service_fatal():
    bench = IssBench()
    bench.iss.load(assemble("li r0, 99\nsc\nhalt"))
    bench.iss.start()
    with pytest.raises(ProcessError):
        bench.sim.run(until=1_000_000)


def test_custom_service_hook():
    bench = IssBench()
    seen = []
    bench.iss.services[7] = lambda iss: seen.append(iss._get(3))
    bench.run_program(
        """
        li r3, 123
        li r0, 7
        sc
        li r0, 0
        sc
        """
    )
    assert seen == [123]


def test_instruction_timing_one_per_cycle():
    bench = run(
        """
        li r3, 100
        mtctr r3
    loop:
        bdnz loop
        li r0, 0
        sc
        """
    )
    # ~106 instructions at 10ns each, plus scheduling slack
    cycles = bench.sim.time / MHz(100)
    assert bench.iss.instructions_retired >= 104
    assert cycles == pytest.approx(bench.iss.instructions_retired, abs=4)


def test_program_too_large_rejected():
    bench = IssBench()
    from repro.cpu.assembler import Program

    with pytest.raises(ValueError):
        bench.iss.load(Program([0] * (len(bench.iss.imem) + 1), 0, {}))


def test_start_requires_elaboration_and_once():
    sim = Simulator()
    top = Module("top")
    clk = Clock("clk", MHz(100), parent=top)
    iss = PpcLiteIss("cpu", clk, parent=top)
    with pytest.raises(RuntimeError):
        iss.start()
    sim.add_module(top)
    iss.load(assemble("halt"))
    iss.start()
    with pytest.raises(RuntimeError):
        iss.start()
