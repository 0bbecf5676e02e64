"""The codegen execution backend against the interpreter, on micro designs.

The interpreter is the specification; the compiled driver must be
*observationally identical* on everything that feeds a report:
``resumes``, ``value_changes``, the per-owner maps, final values and
simulated time.  Every signal in these designs has its own owner, so
the per-owner change map counts each signal's commits.  These tests
exercise each driver arm (clock edge, timer, single- and multi-update
epilogue) plus every bail-out reason (X, multi-waiter wakeups,
simultaneous clock edges) and the process lifecycle (kill with
``finally``, raise, return, trigger echo) on designs small enough that
a divergence pinpoints the arm.
"""

import io

import pytest

from repro.kernel import (
    Clock,
    Edge,
    Event,
    MHz,
    Module,
    RisingEdge,
    Signal,
    Simulator,
    Timer,
    VcdWriter,
    xbits,
)
from repro.kernel.codegen.emitter import _CODE_CACHE

# resumes per process in the longer-running parity scenarios
N_CYCLES = 1024


def _signal(sim, name, width):
    """A registered signal, initially 0, that is its owner's only one."""
    sig = Signal(name, width, init=0, owner=Module(name))
    sim.register_signal(sig)
    return sig


def _stats_fingerprint(sim, *extra):
    st_ = sim.stats
    return (
        sim.time,
        st_.resumes,
        st_.value_changes,
        tuple(sorted((k.path, v) for k, v in st_.resumes_by_owner.items())),
        tuple(sorted((k.path, v) for k, v in st_.changes_by_owner.items())),
        extra,
    )


def _both(build_and_run):
    """Run the same scenario under both backends; return fingerprints."""
    return (
        build_and_run("interp"),
        build_and_run("codegen"),
    )


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        # the retired lanes name is refused like any other, naming the
        # valid backends
        for name in ("bogus", "lanes"):
            with pytest.raises(
                ValueError,
                match="unknown execution backend .*expected 'interp' or 'codegen'",
            ):
                Simulator(backend=name)

    def test_backend_name_recorded(self):
        assert Simulator().backend_name == "interp"
        assert Simulator(backend="codegen").backend_name == "codegen"

    def test_driver_code_is_cached_per_clock_count(self):
        def run():
            sim = Simulator(backend="codegen")
            clk = Clock("clk", MHz(100))
            sim.add_module(clk)
            sim.run(until=10 * MHz(100))
            return sim

        run()
        assert 1 in _CODE_CACHE
        code_before = _CODE_CACHE[1][0]
        run()  # second simulator with the same clock count reuses it
        assert _CODE_CACHE[1][0] is code_before


class TestMicroParity:
    def test_pure_clock(self):
        def run(backend):
            sim = Simulator(backend=backend)
            clk = Clock("clk", MHz(100))
            sim.add_module(clk)
            sim.run(until=3_000 * MHz(100))
            return _stats_fingerprint(sim, clk.out.value)

        a, b = _both(run)
        assert a == b

    def test_clock_with_edge_waiter(self):
        def run(backend):
            sim = Simulator(backend=backend)
            clk = Clock("clk", MHz(100))
            sim.add_module(clk)
            rises = [0, 0]

            def rise_w(i):
                while True:
                    yield RisingEdge(clk.out)
                    rises[i] += 1

            # two single-process rising-edge triggers on one clock
            sim.fork(rise_w(0))
            sim.fork(rise_w(1))
            sim.run(until=500 * MHz(100))
            return _stats_fingerprint(sim, *rises)

        a, b = _both(run)
        assert a == b

    def test_timer_paced_writer_with_watcher(self):
        def run(backend):
            sim = Simulator(backend=backend)
            sig = _signal(sim, "s", 32)
            seen = [0]

            def writer():
                for i in range(300):
                    sig.next = i + 1
                    yield Timer(10)

            def watcher():
                while True:
                    yield Edge(sig)
                    seen[0] += 1

            sim.fork(writer())
            sim.fork(watcher())
            sim.run()
            return _stats_fingerprint(sim, seen[0], sig.value)

        a, b = _both(run)
        assert a == b

    def test_xz_commit_bails_to_interpreter_exactly(self):
        """X-carrying commits take the interpreter on both backends."""

        def run(backend):
            sim = Simulator(backend=backend)
            sig = _signal(sim, "s", 4)
            log = []

            def writer():
                for v in (1, xbits(4), 2, xbits(4), 3):
                    sig.next = v
                    yield Timer(10)

            def watcher():
                while True:
                    yield Edge(sig)
                    log.append(repr(sig.value))

            sim.fork(writer())
            sim.fork(watcher())
            sim.run()
            return _stats_fingerprint(sim, tuple(log), sig.value)

        a, b = _both(run)
        assert a == b

    def test_run_until_event_parity(self):
        def run(backend):
            sim = Simulator(backend=backend)
            clk = Clock("clk", MHz(100))
            sim.add_module(clk)
            done = Event("done")

            def proc():
                for _ in range(40):
                    yield RisingEdge(clk.out)
                done.set(sim)

            sim.fork(proc())
            fired = sim.run_until_event(done, timeout=10_000 * MHz(100))
            return fired, _stats_fingerprint(sim)

        a, b = _both(run)
        assert a == b
        assert a[0] is True

    def test_fsm_pair_writer_with_state_watcher(self):
        # a timer-paced process committing the same signal pair every
        # resume, with a lone Edge watcher on one of them: two-update
        # rounds settle through the generic multi-update path
        def run(backend):
            sim = Simulator(backend=backend)
            state = _signal(sim, "state", 8)
            out = _signal(sim, "out", 8)
            seen = [0]

            def fsm():
                acc = 0
                i = 0
                while i < N_CYCLES:
                    acc = (acc * 5 + i) & 0xFFFF
                    state.next = acc & 0xFF
                    out.next = (acc >> 8) & 0xFF
                    i += 1
                    yield Timer(10)

            def watcher():
                while True:
                    yield Edge(state)
                    seen[0] += 1

            proc = sim.fork(fsm(), "fsm")
            sim.fork(watcher(), "watcher")
            sim.run()
            assert proc.finished
            return _stats_fingerprint(
                sim, seen[0], state.value, out.value
            )

        a, b = _both(run)
        assert a == b

    def test_branchy_writer_stats_stay_exact(self):
        # a rare data-dependent branch changes what each resume commits;
        # counters must not drift by even one resume or commit
        def run(backend):
            sim = Simulator(backend=backend)
            sig = _signal(sim, "s", 16)
            hits = [0]

            def writer():
                i = 0
                while i < N_CYCLES:
                    if i % 97 == 3:
                        hits[0] += 1
                        sig.next = 0xBEEF ^ i
                    else:
                        sig.next = i & 0xFFFF
                    i += 1
                    yield Timer(7)

            sim.fork(writer(), "writer")
            sim.run()
            return _stats_fingerprint(sim, sig.value, hits[0])

        a, b = _both(run)
        assert a == b

    def test_mid_run_x_injection_parity(self):
        # X-carrying commits can't take any compiled fast path; they
        # must flow through the interpreter on both backends
        def run(backend):
            sim = Simulator(backend=backend)
            sig = _signal(sim, "s", 8)
            log = []

            def writer():
                i = 0
                while i < N_CYCLES:
                    if i == 700:
                        sig.next = xbits(8)
                    elif i == 701:
                        sig.next = 0x5A
                    else:
                        sig.next = (i * 3) & 0xFF
                    i += 1
                    yield Timer(5)

            def watcher():
                while True:
                    yield Edge(sig)
                    log.append(repr(sig.value))

            sim.fork(writer(), "writer")
            sim.fork(watcher(), "watcher")
            sim.run()
            return _stats_fingerprint(sim, tuple(log), sig.value)

        a, b = _both(run)
        assert a == b

    def test_kill_runs_finally_with_live_locals(self):
        # kill() closes the generator; its finally block must see the
        # loop locals as the last resume left them
        finals = {}

        def run(backend):
            sim = Simulator(backend=backend)
            sig = _signal(sim, "s", 16)

            def counter():
                i = 0
                try:
                    while True:
                        i += 1
                        sig.next = i & 0xFFFF
                        yield Timer(10)
                finally:
                    finals[backend] = i

            proc = sim.fork(counter(), "counter")

            def killer():
                yield Timer(10 * N_CYCLES)
                proc.kill()

            sim.fork(killer(), "killer")
            sim.run()
            return _stats_fingerprint(sim, sig.value, proc.finished)

        a, b = _both(run)
        assert a == b
        assert finals["interp"] == finals["codegen"] == N_CYCLES

    def test_body_raise_propagates_identically(self):
        def run(backend):
            sim = Simulator(backend=backend)
            sig = _signal(sim, "s", 16)

            def bomb():
                i = 0
                while i < N_CYCLES:
                    sig.next = i & 0xFFFF
                    yield Timer(10)
                    if i == N_CYCLES - 2:
                        raise RuntimeError("boom")
                    i += 1

            sim.fork(bomb(), "bomb")
            with pytest.raises(Exception, match="boom"):
                sim.run()
            return _stats_fingerprint(sim, sig.value)

        a, b = _both(run)
        assert a == b

    def test_finite_generator_return_parity(self):
        # the generator runs out: the process must finish with its
        # return value exactly like the interpreter
        def run(backend):
            sim = Simulator(backend=backend)
            sig = _signal(sim, "s", 16)

            def finite():
                i = 0
                while i < N_CYCLES:
                    sig.next = (i ^ 0x33) & 0xFFFF
                    i += 1
                    yield Timer(4)
                return 0xD00D

            proc = sim.fork(finite(), "finite")
            sim.run()
            return _stats_fingerprint(sim, proc.finished, proc.result,
                                      sig.value)

        a, b = _both(run)
        assert a == b
        assert a[-1][1] == 0xD00D

    def test_trigger_echo_parity(self):
        # `got = yield got` hands the fired Timer straight back to the
        # scheduler, re-arming an already-consumed trigger
        def run(backend):
            sim = Simulator(backend=backend)
            sig = _signal(sim, "s", 16)

            def echo():
                i = 0
                got = None
                while i < N_CYCLES:
                    i += 1
                    sig.next = i & 0xFFFF
                    if got is not None and i % 51 == 0:
                        got = yield got
                    else:
                        got = yield Timer(9)

            sim.fork(echo(), "echo")
            sim.run()
            return _stats_fingerprint(sim, sig.value)

        a, b = _both(run)
        assert a == b

    def test_zero_delay_timer_parity(self):
        def run(backend):
            sim = Simulator(backend=backend)
            sig = _signal(sim, "s", 16)

            def spinner():
                i = 0
                while i < N_CYCLES:
                    sig.next = i & 0xFFFF
                    i += 1
                    yield Timer(0) if i % 3 else Timer(2)

            sim.fork(spinner(), "spinner")
            sim.run()
            return _stats_fingerprint(sim, sig.value)

        a, b = _both(run)
        assert a == b

    def test_vcd_bytes_identical_with_x_commit(self):
        # VCD demand makes the compiled driver fall back wholesale; the
        # waveform must still be byte-identical to the interpreter's
        def run(backend):
            sim = Simulator(backend=backend)
            top = Module("top")
            data = top.signal("data", 8, init=0)
            stream = io.StringIO()
            writer = VcdWriter(stream)
            writer.trace(data, scope="top")

            def stim():
                for i in range(400):
                    data.next = xbits(8) if i == 170 else (i * 11) & 0xFF
                    yield Timer(10)

            top.process(stim, name="stim")
            sim.add_module(top)
            sim.attach_vcd(writer)
            sim.run()
            sim.close()
            return stream.getvalue()

        a, b = _both(run)
        assert a == b


class TestVcdFallback:
    def test_vcd_attached_runs_fall_back_and_match_byte_for_byte(self):
        def run(backend):
            sim = Simulator(backend=backend)
            top = Module("top")
            clk = Clock("clk", MHz(100), parent=top)
            data = top.signal("data", 8, init=0)
            stream = io.StringIO()
            writer = VcdWriter(stream)
            writer.trace(clk.out, scope="top")
            writer.trace(data, scope="top")

            def stim():
                for i in range(20):
                    yield RisingEdge(clk.out)
                    data.next = i

            top.process(stim, name="stim")
            sim.add_module(top)
            sim.attach_vcd(writer)
            sim.run(until=50 * MHz(100))
            sim.close()
            return stream.getvalue()

        a, b = _both(run)
        assert a == b


class TestTwoClockSoc:
    """The shape of every paper run: a 100 MHz bus clock and a 50 MHz
    configuration clock, so each slow edge lands on a fast one."""

    @staticmethod
    def _run(backend, until=2 * 1_000_000):
        sim = Simulator(backend=backend)
        top = Module("soc")
        bus = Clock("bus_clk", MHz(100), parent=top)
        cfg = Clock("cfg_clk", MHz(50), parent=top)
        plb = Module("plb", parent=top)
        icap = Module("icap", parent=top)
        data = plb.signal("data", 16, init=0)
        seen = icap.signal("seen", 16, init=0)

        def bus_waiter():
            while True:
                yield RisingEdge(bus.out)

        def cfg_waiter():
            while True:
                yield RisingEdge(cfg.out)

        def writer():
            i = 0
            while True:
                i += 1
                data.next = i & 0xFFFF
                yield Timer(7_000)

        def watcher():
            n = 0
            while True:
                yield Edge(data)
                n += 1
                seen.next = n & 0xFFFF

        plb.process(bus_waiter)
        plb.process(writer)
        icap.process(cfg_waiter)
        icap.process(watcher)
        sim.add_module(top)
        sim.run(until=until)
        st_ = sim.stats

        def by_path(by_owner):
            return sorted((k.path, v) for k, v in by_owner.items())

        signals = {
            f"{mod.path}.{sig.name}": sig.value
            for mod in top.iter_tree()
            for sig in mod.signals
        }
        observed = (
            sim.time, st_.resumes, st_.value_changes,
            by_path(st_.resumes_by_owner), by_path(st_.changes_by_owner),
            signals,
        )
        return sim, observed

    def test_matches_interp(self):
        _, want = self._run("interp")
        sim, got = self._run("codegen")
        assert got == want
        counts = sim._backend.event_counts
        assert counts[("bail", "clock-simultaneous")] > 0
        # the driver still takes the steps that hold one event
        assert sum(counts.values()) < sim.stats.timesteps


@pytest.mark.parametrize("backend", ["interp", "codegen"])
def test_delta_restarts_when_run_advances_time(backend):
    sim = Simulator(backend=backend)
    clk = Clock("clk", MHz(100))
    sim.add_module(clk)

    def waiter():
        while True:
            yield RisingEdge(clk.out)

    sim.fork(waiter())
    sim.run(until=12_345)
    assert sim.time == 12_345
    assert sim.delta == 0
