"""Tests for the Video VIPs (camera/display substitutes)."""

import numpy as np

from repro.bus import PlbBus, PlbMemory
from repro.kernel import Clock, MHz, Module, Simulator
from repro.video import (
    FrameSequence,
    SceneConfig,
    VideoInVIP,
    VideoOutVIP,
    unpack_pixels,
)

FRAME_BASE = 0x0000_0000
#: words in one make_env() frame (32x16 pixels, four per word)
FRAME_WORDS = 32 * 16 // 4


def make_env(width=32, height=16):
    sim = Simulator()
    top = Module("top")
    clk = Clock("clk", MHz(100), parent=top)
    bus = PlbBus("plb", clk, parent=top)
    mem = PlbMemory("mem", 256 * 1024, parent=top)
    bus.attach_slave(mem, base=0, size=256 * 1024)
    seq = FrameSequence(SceneConfig(width=width, height=height))
    vin = VideoInVIP("vin", bus.attach_master("vin"), seq, parent=top)
    vout = VideoOutVIP("vout", bus.attach_master("vout"), parent=top)
    sim.add_module(top)
    return sim, top, clk, bus, mem, seq, vin, vout


def test_video_in_writes_frame_to_memory():
    sim, top, clk, bus, mem, seq, vin, vout = make_env()
    sent = {}

    def driver():
        frame = yield from vin.send_frame(0, FRAME_BASE)
        sent["frame"] = frame

    sim.fork(driver())
    sim.run(until=50_000_000)
    words = mem.dump_words(FRAME_BASE, FRAME_WORDS)
    recovered = unpack_pixels(words).reshape(16, 32)
    assert np.array_equal(recovered, sent["frame"])
    assert np.array_equal(sent["frame"], seq.frame(0))


def test_video_out_reads_back_pixels():
    sim, top, clk, bus, mem, seq, vin, vout = make_env()
    got = {}

    def driver():
        frame = yield from vin.send_frame(2, FRAME_BASE)
        out = yield from vout.fetch_pixels(FRAME_BASE, (16, 32))
        got["in"], got["out"] = frame, out

    sim.fork(driver())
    sim.run(until=100_000_000)
    assert np.array_equal(got["in"], got["out"])
    assert vout.corrupt_words == 0


def test_backdoor_load_matches_bus_path():
    sim, top, clk, bus, mem, seq, vin, vout = make_env()
    frame = vin.send_frame_backdoor(1, mem, FRAME_BASE)
    words = mem.dump_words(FRAME_BASE, FRAME_WORDS)
    assert np.array_equal(unpack_pixels(words).reshape(frame.shape), frame)


def test_frame_transfer_generates_bus_traffic():
    sim, top, clk, bus, mem, seq, vin, vout = make_env()
    done = []
    bus.add_observer(done.append)

    def driver():
        yield from vin.send_frame(0, FRAME_BASE)

    sim.fork(driver())
    sim.run(until=50_000_000)
    assert bus.total_beats == FRAME_WORDS
    assert len(done) == FRAME_WORDS // 16
