"""Table II — time to simulate one video frame.

Simulates one complete frame of the pipelined flow (CIE -> DPR -> ME ->
DPR -> ISR drawing) under ReSim and reports, per execution stage, the
simulated time, the wall-clock elapsed time, and the kernel-event count
(the host-independent proxy for elapsed time).

Absolute numbers differ from the paper (their substrate is ModelSim on
a 2009-era host at 320x240; ours is a Python kernel at a scaled
geometry — set REPRO_FULL_RES=1 for 320x240).  The *shape* assertions
hold:

* ME covers more simulated time than CIE (paper: 1.4 ms vs 1.1 ms),
* CIE nevertheless takes longer to simulate — more signal activity
  (paper: 6 min vs 4.5 min),
* the ISR stage is cheap in both senses (paper: 0.5 ms / 0.5 min),
* DPR is negligible because the SimB is much shorter than a real
  bitstream (paper: <0.1 ms / negligible).

The bit-true counterfactual checks that premise from the other side: one
``tiny`` frame whose SimB has the real bitstream's 129K words.  Its
simulated time and kernel events are published beside the table (its
wall time is printed only), and DPR then dominates the frame.
"""

import time

import pytest

from repro.analysis import format_table, profile_one_frame
from repro.reconfig.simb import REAL_BITSTREAM_WORDS
from repro.system import SystemConfig

from .conftest import CAMPAIGN_GEOMETRY, geometry, publish


@pytest.fixture(scope="module")
def frame_profile():
    config = SystemConfig(video_backdoor=True, **geometry())
    return profile_one_frame(config, quantum_ps=1_000_000)


@pytest.fixture(scope="module")
def bit_true_profile():
    """One ``tiny`` frame moving a real-size (129K-word) bitstream."""
    config = SystemConfig(
        video_backdoor=True,
        **dict(CAMPAIGN_GEOMETRY, simb_payload_words=REAL_BITSTREAM_WORDS),
    )
    t0 = time.perf_counter()
    profile = profile_one_frame(config, quantum_ps=1_000_000)
    print(f"\nbit-true Table II frame: {time.perf_counter() - t0:.1f} s wall")
    return profile


def _bit_true_table(profile) -> str:
    """The counterfactual's deterministic columns: no wall time."""
    config = profile.config
    return format_table(
        ["Stage", "Simulated Time (ms)", "Kernel events"],
        [
            (label, round(sim_ms, 4), events)
            for label, sim_ms, _, events in profile.rows()
        ],
        title=(
            f"Bit-true counterfactual — one frame with a real-size "
            f"bitstream ({config.width}x{config.height}, SimB payload "
            f"{config.simb_payload_words} words)"
        ),
    )


def test_table2_frame_time(benchmark, frame_profile, bit_true_profile):
    config = SystemConfig(video_backdoor=True, **geometry())
    profile = benchmark.pedantic(
        profile_one_frame, args=(config,), kwargs=dict(quantum_ps=1_000_000),
        rounds=1, iterations=1,
    )
    rows = [
        (label, round(sim_ms, 4), round(elapsed, 3), events)
        for label, sim_ms, elapsed, events in profile.rows()
    ]
    text = format_table(
        ["Stage", "Simulated Time (ms)", "Elapsed Time (s)", "Kernel events"],
        rows,
        title=(
            f"Table II — time to simulate one video frame "
            f"({config.width}x{config.height}, SimB payload "
            f"{config.simb_payload_words} words)"
        ),
    )
    text += "\n\n" + _bit_true_table(bit_true_profile)
    publish("table2_frame_time", text, benchmark)
    assert profile.clean
    _assert_table2_shape(profile)


def _assert_table2_shape(profile):
    cie, me = profile.phase("cie"), profile.phase("me")
    isr, dpr = profile.phase("isr_draw"), profile.phase("dpr")
    assert me.simulated_ps > cie.simulated_ps
    assert cie.events > me.events
    assert cie.events_per_simulated_us > 1.2 * me.events_per_simulated_us
    assert cie.elapsed_s > me.elapsed_s
    assert isr.simulated_ps < cie.simulated_ps
    assert dpr.simulated_ps < 0.1 * profile.total_simulated_ps


def test_table2_shape_me_simulated_longer_than_cie(frame_profile):
    assert (
        frame_profile.phase("me").simulated_ps
        > frame_profile.phase("cie").simulated_ps
    )


def test_table2_shape_cie_more_expensive_to_simulate(frame_profile):
    """CIE has more signal activity: more kernel events overall AND per
    unit of simulated time, despite covering less simulated time."""
    cie = frame_profile.phase("cie")
    me = frame_profile.phase("me")
    assert cie.events > me.events
    assert cie.events_per_simulated_us > 1.2 * me.events_per_simulated_us
    assert cie.elapsed_s > me.elapsed_s


def test_table2_shape_isr_is_cheap(frame_profile):
    isr = frame_profile.phase("isr_draw")
    cie = frame_profile.phase("cie")
    assert isr.simulated_ps < cie.simulated_ps
    assert isr.elapsed_s < 0.5 * cie.elapsed_s
    assert isr.events < 0.5 * cie.events


def test_table2_shape_dpr_negligible(frame_profile):
    """Both DPR intervals together stay below ~10% of the frame."""
    dpr = frame_profile.phase("dpr")
    assert dpr.simulated_ps < 0.1 * frame_profile.total_simulated_ps
    assert dpr.events < 0.1 * frame_profile.total_events


def test_table2_simb_much_shorter_than_real_bitstream():
    """The premise of the negligible-DPR row: SimB 4K vs real 129K."""
    from repro.reconfig.simb import DEFAULT_PAYLOAD_WORDS, REAL_BITSTREAM_WORDS

    assert REAL_BITSTREAM_WORDS / DEFAULT_PAYLOAD_WORDS > 30


def test_table2_bit_true_dpr_is_not_negligible(bit_true_profile):
    """With a real-size bitstream the premise is gone: moving it takes
    most of the frame's simulated time and kernel events."""
    dpr = bit_true_profile.phase("dpr")
    assert bit_true_profile.clean
    assert dpr.simulated_ps > 0.9 * bit_true_profile.total_simulated_ps
    assert dpr.events > 0.9 * bit_true_profile.total_events
