"""Tests for the Census Image Engine RTL model."""

import numpy as np
import pytest

from repro.engines import CensusImageEngine
from repro.kernel import Edge
from repro.video import census_transform, unpack_pixels

from .conftest import FEAT_BASE, FRAME_BASE, EngineBench, load_frame


def run_cie(scene, reset=True):
    bench = EngineBench(CensusImageEngine)
    frame = scene.frame(0)
    load_frame(bench.mem, FRAME_BASE, frame)
    bench.program(FRAME_BASE, 0, FEAT_BASE)
    done = bench.run_frame(reset=reset)
    words = bench.mem.dump_words(FEAT_BASE, bench.width * bench.height // 4)
    feat = unpack_pixels(words).reshape(bench.height, bench.width)
    return bench, frame, feat, done


def test_cie_matches_golden_model(scene):
    bench, frame, feat, done = run_cie(scene)
    assert done
    assert np.array_equal(feat, census_transform(frame))
    assert bench.engine.frames_processed == 1
    assert not bench.regs.status_error


def test_cie_simulated_time_tracks_throughput(scene):
    bench, frame, feat, done = run_cie(scene)
    assert done
    # >= compute cycles alone (1 px/cycle), <= 4x for bus overheads
    px = bench.width * bench.height
    min_time = px * bench.clk.period
    assert min_time <= bench.sim.time <= 4 * min_time


def test_cie_unreset_engine_corrupts_output_and_flags_error(scene):
    bench, frame, feat, done = run_cie(scene, reset=False)
    assert done
    assert bench.regs.status_error
    assert bench.engine.frames_corrupted == 1
    assert not np.array_equal(feat, census_transform(frame))


def test_cie_start_while_absent_is_ignored(scene):
    bench = EngineBench(CensusImageEngine)
    load_frame(bench.mem, FRAME_BASE, scene.frame(0))
    bench.program(FRAME_BASE, 0, FEAT_BASE)
    done = bench.run_frame(swap_in=False, reset=False, timeout_ms=2)
    assert not done
    assert bench.engine.frames_processed == 0


def test_cie_reset_while_absent_is_lost(scene):
    """The bug.dpr.6b mechanism: reset pulses vanish without an engine."""
    bench = EngineBench(CensusImageEngine)
    bench.engine.reset()  # not present yet
    assert not bench.engine.is_reset
    bench.engine.swap_in()
    bench.engine.reset()
    assert bench.engine.is_reset


def test_cie_swap_out_mid_frame_aborts(scene):
    bench = EngineBench(CensusImageEngine)
    load_frame(bench.mem, FRAME_BASE, scene.frame(0))
    bench.program(FRAME_BASE, 0, FEAT_BASE)
    bench.engine.swap_in()

    def kicker():
        bench.engine.reset()
        bench.engine.trigger_start()
        yield from ()

    bench.sim.fork(kicker())
    bench.sim.run(until=20_000)  # let a few rows process
    bench.engine.swap_out()
    bench.sim.run(until=5_000_000)
    assert bench.engine.frames_processed == 0
    assert not bench.regs.status_done


def test_cie_swap_in_clears_reset_state(scene):
    bench = EngineBench(CensusImageEngine)
    bench.engine.swap_in()
    bench.engine.reset()
    assert bench.engine.is_reset
    bench.engine.swap_out()
    bench.engine.swap_in()
    assert not bench.engine.is_reset  # fresh configuration is dirty


def test_cie_generates_io_and_datapath_activity(scene):
    bench = EngineBench(CensusImageEngine)
    changes = {}

    def count(sig):
        changes[sig] = 0
        while True:
            yield Edge(sig)
            changes[sig] += 1

    io_act, dp_act = bench.engine.io_activity, bench.engine.dp_activity
    bench.sim.fork(count(io_act))
    bench.sim.fork(count(dp_act))
    load_frame(bench.mem, FRAME_BASE, scene.frame(0))
    bench.program(FRAME_BASE, 0, FEAT_BASE)
    assert bench.run_frame()
    assert changes[io_act] > 2 * bench.height - 4
    assert changes[dp_act] > bench.width * (bench.height - 2)


def test_cie_back_to_back_frames(scene):
    bench = EngineBench(CensusImageEngine)
    for t in range(2):
        frame = scene.frame(t)
        load_frame(bench.mem, FRAME_BASE, frame)
        bench.program(FRAME_BASE, 0, FEAT_BASE)
        done = bench.run_frame(reset=True, swap_in=(t == 0))
        assert done
        words = bench.mem.dump_words(FEAT_BASE, bench.width * bench.height // 4)
        feat = unpack_pixels(words).reshape(bench.height, bench.width)
        assert np.array_equal(feat, census_transform(frame))
    assert bench.engine.frames_processed == 2
