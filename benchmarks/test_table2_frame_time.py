"""Table II — time to simulate one video frame.

Simulates one complete frame of the pipelined flow (CIE -> DPR -> ME ->
DPR -> ISR drawing) under ReSim at the paper's geometry (320x240, 4K-word
SimB) and reports, per execution stage, the simulated time, the
kernel-event count (the host-independent proxy for elapsed time) and
events per simulated microsecond.  The wall-clock elapsed time per stage
is printed, not committed: it depends on the host.

Absolute elapsed times differ from the paper (their substrate is
ModelSim on a 2009-era host; ours is a Python kernel).  The *shape*
assertions hold:

* ME covers more simulated time than CIE (paper: 1.4 ms vs 1.1 ms, a
  ratio of 1.27 that ours matches within 15%),
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

from .conftest import CAMPAIGN_GEOMETRY, PAPER_GEOMETRY, publish

#: the paper's Table II simulated times (ms)
PAPER_CIE_MS = 1.1
PAPER_ME_MS = 1.4

PAPER_CONFIG = SystemConfig(video_backdoor=True, **PAPER_GEOMETRY)


@pytest.fixture(scope="module")
def frame_profile():
    return profile_one_frame(PAPER_CONFIG, quantum_ps=1_000_000)


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


def _table(profile, title: str) -> str:
    """The profile's deterministic columns: no wall time."""
    config = profile.config
    return format_table(
        ["Stage", "Simulated Time (ms)", "Kernel events",
         "Events per simulated µs"],
        [
            (label, round(sim_ms, 4), events,
             events / (sim_ms * 1e3) if sim_ms else 0.0)
            for label, sim_ms, _, events in profile.rows()
        ],
        title=(
            f"{title} ({config.width}x{config.height}, SimB payload "
            f"{config.simb_payload_words} words)"
        ),
    )


def test_table2_frame_time(benchmark, frame_profile, bit_true_profile):
    profile = benchmark.pedantic(
        profile_one_frame, args=(PAPER_CONFIG,),
        kwargs=dict(quantum_ps=1_000_000), rounds=1, iterations=1,
    )
    print("\nTable II elapsed time (s, host-dependent, not committed): "
          + ", ".join(f"{label} {elapsed:.3f}"
                      for label, _, elapsed, _ in profile.rows()))
    text = _table(profile, "Table II — time to simulate one video frame")
    text += "\n\n" + _table(
        bit_true_profile,
        "Bit-true counterfactual — one frame with a real-size bitstream",
    )
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


def test_table2_shape_me_to_cie_simulated_ratio_matches_paper(frame_profile):
    """ME/CIE simulated time is the paper's 1.4/1.1 = 1.27, within 15%."""
    ratio = (
        frame_profile.phase("me").simulated_ps
        / frame_profile.phase("cie").simulated_ps
    )
    assert ratio == pytest.approx(PAPER_ME_MS / PAPER_CIE_MS, rel=0.15)


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
