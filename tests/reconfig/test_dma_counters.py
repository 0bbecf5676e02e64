"""The bitstream DMA's kernel counters, pinned.

IcapCTRL's fetch and drain and the PLB arbiter move every SimB word, and
the kernel counts what that costs: resumes, value changes, delta cycles
and timesteps, per owning module.  These are the paper's Table II
activity figures, so a change to how the DMA path is scheduled must
leave every one of them as it was.  Each case runs ``tiny`` for one
frame with a 1,024-word SimB in one of the DMA's regimes:

* ``cfg50``: the default 50 MHz configuration clock; the fetch sends
  3-word bursts and keeps the FIFO near full;
* ``cfg100``: the configuration clock at bus speed; the fetch is the
  bottleneck and sends full 8-word bursts;
* ``cfg10``: a 10 MHz configuration clock; the drain is the bottleneck
  and the fetch polls the full FIFO several times per word;
* ``dpr.4``: the point-to-point port (the fetch drives its own
  transfers, colliding on the shared bus);
* ``dpr.6b``: software resets the engines while the DMA is mid-transfer.
"""

import pytest

from repro.system.scenarios import scenario
from repro.verif import run_system

CASES = {
    "cfg50": dict(cfg_mhz=50.0),
    "cfg100": dict(cfg_mhz=100.0),
    "cfg10": dict(cfg_mhz=10.0),
    "dpr.4": dict(faults=frozenset({"dpr.4"})),
    "dpr.6b": dict(faults=frozenset({"dpr.6b"})),
}

#: stats are (resumes, value_changes, deltas, timesteps, silent_timesteps);
#: dma is (words_fetched, words_drained, total_beats)
EXPECTED = {
    "cfg50": dict(
        sim_time_ps=112_855_000,
        stats=(21_262, 51_334, 40_295, 28_332, 10_529),
        dma=(2_068, 2_068, 5_044),
        resumes_by_owner={
            "autovision": 2,
            "autovision.cie": 7_267,
            "autovision.icapctrl": 2_786,
            "autovision.intc": 30,
            "autovision.isolation": 165,
            "autovision.me": 403,
            "autovision.plb": 8_565,
            "autovision.rr0": 161,
            "autovision.software": 1_883,
        },
        changes_by_owner={
            "autovision.bus_clk": 22_571,
            "autovision.cfg_clk": 11_285,
            "autovision.cie": 7_268,
            "autovision.dcr": 211,
            "autovision.icap_artifact": 2_068,
            "autovision.icapctrl": 4,
            "autovision.intc": 4,
            "autovision.isolation": 163,
            "autovision.me": 404,
            "autovision.plb": 7_180,
            "autovision.rr0": 176,
        },
    ),
    "cfg100": dict(
        sim_time_ps=99_255_000,
        stats=(19_794, 55_868, 33_363, 25_612, 11_173),
        dma=(2_068, 2_068, 5_044),
        resumes_by_owner={
            "autovision": 2,
            "autovision.cie": 7_267,
            "autovision.icapctrl": 3_138,
            "autovision.intc": 26,
            "autovision.isolation": 165,
            "autovision.me": 403,
            "autovision.plb": 6_869,
            "autovision.rr0": 161,
            "autovision.software": 1_763,
        },
        changes_by_owner={
            "autovision.bus_clk": 19_851,
            "autovision.cfg_clk": 19_851,
            "autovision.cie": 7_268,
            "autovision.dcr": 171,
            "autovision.icap_artifact": 2_068,
            "autovision.icapctrl": 4,
            "autovision.intc": 4,
            "autovision.isolation": 163,
            "autovision.me": 404,
            "autovision.plb": 5_908,
            "autovision.rr0": 176,
        },
    ),
    "cfg10": dict(
        sim_time_ps=278_775_000,
        stats=(41_719, 83_358, 92_502, 61_516, 27_398),
        dma=(2_068, 2_068, 5_044),
        resumes_by_owner={
            "autovision": 2,
            "autovision.cie": 7_267,
            "autovision.icapctrl": 16_331,
            "autovision.intc": 62,
            "autovision.isolation": 165,
            "autovision.me": 403,
            "autovision.plb": 13_981,
            "autovision.rr0": 161,
            "autovision.software": 3_347,
        },
        changes_by_owner={
            "autovision.bus_clk": 55_755,
            "autovision.cfg_clk": 5_575,
            "autovision.cie": 7_268,
            "autovision.dcr": 699,
            "autovision.icap_artifact": 2_068,
            "autovision.icapctrl": 4,
            "autovision.intc": 4,
            "autovision.isolation": 163,
            "autovision.me": 404,
            "autovision.plb": 11_242,
            "autovision.rr0": 176,
        },
    ),
    "dpr.4": dict(
        sim_time_ps=108_055_000,
        stats=(26_309, 51_774, 43_282, 33_132, 8_810),
        dma=(2_068, 2_068, 4_756),
        resumes_by_owner={
            "autovision": 2,
            "autovision.cie": 14_533,
            "autovision.icapctrl": 6_213,
            "autovision.intc": 30,
            "autovision.isolation": 137,
            "autovision.me": 1,
            "autovision.plb": 3_377,
            "autovision.rr0": 133,
            "autovision.software": 1_883,
        },
        changes_by_owner={
            "autovision.bus_clk": 21_611,
            "autovision.cfg_clk": 10_805,
            "autovision.cie": 14_536,
            "autovision.dcr": 211,
            "autovision.icapctrl": 4,
            "autovision.intc": 4,
            "autovision.isolation": 140,
            "autovision.plb": 4_327,
            "autovision.rr0": 136,
        },
    ),
    "dpr.6b": dict(
        sim_time_ps=292_295_000,
        stats=(13_126, 99_720, 69_752, 64_221, 52_458),
        dma=(1_034, 1_034, 2_186),
        resumes_by_owner={
            "autovision": 1,
            "autovision.cie": 7_267,
            "autovision.icapctrl": 1_396,
            "autovision.intc": 341,
            "autovision.isolation": 71,
            "autovision.me": 1,
            "autovision.plb": 3_851,
            "autovision.rr0": 69,
            "autovision.software": 129,
        },
        changes_by_owner={
            "autovision.bus_clk": 58_459,
            "autovision.cfg_clk": 29_229,
            "autovision.cie": 7_268,
            "autovision.dcr": 57,
            "autovision.icap_artifact": 1_034,
            "autovision.icapctrl": 2,
            "autovision.intc": 2,
            "autovision.isolation": 77,
            "autovision.plb": 3_516,
            "autovision.rr0": 76,
        },
    ),
}


def measure(**overrides):
    """Run the pinned ``tiny`` frame; returns its counters as EXPECTED has them."""
    captured = {}

    def prepare(system, software, sim):
        captured.update(system=system, sim=sim)

    run_system(
        scenario("tiny", simb_payload_words=1024, **overrides), 1, prepare=prepare
    )
    system, sim = captured["system"], captured["sim"]
    st = sim.stats
    return dict(
        sim_time_ps=sim.time,
        stats=(
            st.resumes,
            st.value_changes,
            st.deltas,
            st.timesteps,
            st.silent_timesteps,
        ),
        dma=(
            system.icapctrl.words_fetched,
            system.icapctrl.words_drained,
            system.bus.total_beats,
        ),
        resumes_by_owner={
            owner.path: n for owner, n in st.resumes_by_owner.items() if n
        },
        changes_by_owner={
            owner.path: n for owner, n in st.changes_by_owner.items() if n
        },
    )


@pytest.mark.parametrize("case", list(CASES))
def test_dma_counters_are_pinned(case):
    assert measure(**CASES[case]) == EXPECTED[case]
