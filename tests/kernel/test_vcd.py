"""Tests for the VCD waveform writer."""

import io

from repro.kernel import Clock, MHz, Module, Simulator, Timer, VcdWriter, xbits
from repro.kernel.vcd import _vcd_id


def test_vcd_id_generation_unique():
    ids = {_vcd_id(i) for i in range(5000)}
    assert len(ids) == 5000
    assert _vcd_id(0) == "!"


def _run_with_vcd(trace_module=False):
    sim = Simulator()
    top = Module("top")
    sig = top.signal("data", 8, init=0)
    clk = Clock("clk", MHz(100), parent=top)

    def driver():
        for i in (0x12, 0x34, 0x56):
            yield Timer(10_000)
            sig.next = i
        yield Timer(10_000)
        sig.next = xbits(8)

    top.process(driver, "driver")
    stream = io.StringIO()
    writer = VcdWriter(stream)
    if trace_module:
        writer.trace_module(top)
    else:
        writer.trace(sig, scope="top")
        writer.trace(clk.out, scope="top.clk")
    sim.add_module(top)
    sim.attach_vcd(writer)
    sim.run(until=50_000)
    sim.close()
    return stream.getvalue(), writer


def test_vcd_header_and_changes():
    text, writer = _run_with_vcd()
    assert "$timescale 1ps $end" in text
    assert "$scope module top $end" in text
    assert "$var wire 8" in text
    assert "$var wire 1" in text
    assert "$enddefinitions $end" in text
    # initial dump plus value changes with timestamps
    assert "$dumpvars" in text
    assert "#10000" in text
    assert writer.changes_recorded > 5


def test_vcd_records_x_values():
    text, _ = _run_with_vcd()
    assert "bxxxxxxxx" in text


def test_vcd_trace_module_hierarchy():
    text, _ = _run_with_vcd(trace_module=True)
    assert "$scope module clk $end" in text
    assert text.count("$upscope $end") >= 2


def test_vcd_binary_format_of_vector():
    text, _ = _run_with_vcd()
    assert "b00010010 " in text  # 0x12
    assert "b01010110 " in text  # 0x56


def test_vcd_empty_dump_is_valid():
    """A writer with no traced signals still emits a parseable file."""
    sim = Simulator()
    top = Module("top")
    top.signal("unused", 4, init=0)
    stream = io.StringIO()
    writer = VcdWriter(stream)
    sim.add_module(top)
    sim.attach_vcd(writer)
    sim.run(until=1_000)
    sim.close()
    text = stream.getvalue()
    assert "$enddefinitions $end" in text
    assert "$dumpvars" in text
    assert "$var" not in text
    assert writer.changes_recorded == 0
    # close() stamps the final simulation time even with nothing traced
    assert text.rstrip().endswith("#1000")


def test_vcd_rollover_timestamps():
    """Timestamps past 2**32 ps (the uint32 rollover trap) are written
    verbatim and stay monotonic."""
    sim = Simulator()
    top = Module("top")
    sig = top.signal("tick", 1, init=0)

    def proc():
        yield Timer(2**32 - 1)
        sig.next = 1
        yield Timer(2)
        sig.next = 0
        yield Timer(1)

    top.process(proc, "proc")
    stream = io.StringIO()
    writer = VcdWriter(stream)
    writer.trace(sig, scope="top")
    sim.add_module(top)
    sim.attach_vcd(writer)
    sim.run()
    text = stream.getvalue()
    assert f"#{2**32 - 1}\n" in text
    assert f"#{2**32 + 1}\n" in text
    stamps = [int(line[1:]) for line in text.splitlines()
              if line.startswith("#")]
    assert stamps == sorted(stamps)
