"""Tests for the Dynamic-Circuit-Switch-style simulation method."""

from repro.system import AutoVisionSystem
from repro.system.autovision import NullConfigPort
from repro.verif import run_system

from .conftest import small_config


def test_clean_dcs_run_passes():
    res = run_system(small_config(method="dcs"), n_frames=2)
    assert not res.detected, res.anomalies
    assert res.frames_drawn == 2


def test_dcs_structure():
    """DCS adds a signature register + injector; no ReSim artifacts."""
    system = AutoVisionSystem(small_config(method="dcs"))
    assert system.dcs is not None
    assert system.vmux is None
    assert system.artifacts is None
    assert isinstance(system.icap, NullConfigPort)
    assert "dcs_sig" in system.dcr.chain_order()


def test_dcs_swap_leaves_engine_dirty():
    """Unlike VMux, DCS models module activation: a swapped-in module
    has undefined state until reset (so dpr.3 is observable)."""
    system = AutoVisionSystem(small_config(method="dcs"))
    sim = system.build()

    def driver():
        yield from system.dcr.write(
            system.dcs.signature.addr_of("SIG"), system.me.ENGINE_ID
        )

    sim.fork(driver())
    sim.run_for(50_000_000)
    assert system.slot.active is system.me
    assert not system.me.is_reset


def test_dcs_injects_during_constant_window():
    system = AutoVisionSystem(small_config(method="dcs"))
    sim = system.build()
    system.isolation.set_enabled(False)

    def driver():
        yield from system.dcr.write(
            system.dcs.signature.addr_of("SIG"), system.me.ENGINE_ID
        )

    sim.fork(driver())
    # run into the middle of the swap window
    sim.run_for(system.dcs.SWAP_DELAY_CYCLES * system.bus_clock.period // 2)
    assert system.slot.injecting
    assert system.slot.active is None
    sim.run_for(200_000_000)
    assert not system.slot.injecting
    assert system.isolation.x_leaks > 0  # isolation was off: X escaped


def test_dcs_detects_isolation_bug_but_not_bitstream_bugs():
    assert run_system(
        small_config(method="dcs", faults=frozenset({"dpr.1"})), n_frames=1
    ).detected
    for key in ("dpr.4", "dpr.5", "dpr.6b"):
        assert not run_system(
            small_config(method="dcs", faults=frozenset({key})), n_frames=1
        ).detected, key


def test_dcs_icapctrl_never_exercised():
    res = run_system(small_config(method="dcs"), n_frames=1)
    system = AutoVisionSystem(small_config(method="dcs"))
    assert system.icapctrl.transfers_completed == 0
