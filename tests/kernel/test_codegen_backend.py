"""The codegen execution backend against the interpreter, on micro designs.

The interpreter is the specification; the compiled driver must be
*observationally identical* on everything that feeds a report:
``resumes``, ``value_changes``, the per-owner maps, per-signal
counters, final values and simulated time.  These tests exercise each
specialized driver arm (batched clock, sprint, timers, single-update
epilogue) plus every bail-out reason (X/Z, monitors, multi-waiter
wakeups) on designs small enough that a divergence pinpoints the arm.
"""

import io

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.kernel import (
    Clock,
    Edge,
    Event,
    FallingEdge,
    MHz,
    Module,
    RisingEdge,
    Signal,
    Simulator,
    Timer,
    VcdWriter,
    xbits,
)
from repro.kernel.codegen import mux, ref
from repro.kernel.codegen.emitter import _CODE_CACHE


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
        for name in ("bogus", "lanes"):
            with pytest.raises(ValueError, match="unknown execution backend"):
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
            return _stats_fingerprint(
                sim, clk.cycles, clk.out.value.value,
                clk.out.fast_hits, clk.out.change_count,
            )

        a, b = _both(run)
        assert a == b

    def test_clock_with_edge_waiter(self):
        def run(backend):
            sim = Simulator(backend=backend)
            clk = Clock("clk", MHz(100))
            sim.add_module(clk)
            rises, falls = [0], [0]

            def rise_w():
                while True:
                    yield RisingEdge(clk.out)
                    rises[0] += 1

            def fall_w():
                while True:
                    yield FallingEdge(clk.out)
                    falls[0] += 1

            sim.fork(rise_w())
            sim.fork(fall_w())
            sim.run(until=500 * MHz(100))
            return _stats_fingerprint(sim, rises[0], falls[0], clk.cycles)

        a, b = _both(run)
        assert a == b

    def test_timer_paced_writer_with_watcher(self):
        def run(backend):
            sim = Simulator(backend=backend)
            sig = Signal("s", 32, init=0)
            sim.register_signal(sig)
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
            return _stats_fingerprint(
                sim, seen[0], sig.value.value, sig.fast_hits, sig.change_count
            )

        a, b = _both(run)
        assert a == b

    def test_xz_commit_bails_to_interpreter_exactly(self):
        """X-carrying commits take the four-state path on both backends."""

        def run(backend):
            sim = Simulator(backend=backend)
            sig = Signal("s", 4, init=0)
            sim.register_signal(sig)
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
            return _stats_fingerprint(
                sim, tuple(log), sig.fast_hits, sig.fast_misses
            )

        a, b = _both(run)
        assert a == b

    def test_monitored_signal_bails_exactly(self):
        def run(backend):
            sim = Simulator(backend=backend)
            clk = Clock("clk", MHz(100))
            sim.add_module(clk)
            ticks = []
            clk.out.add_monitor(lambda s, old, new: ticks.append(new.value))
            sim.run(until=50 * MHz(100))
            return _stats_fingerprint(sim, tuple(ticks), clk.cycles)

        a, b = _both(run)
        assert a == b

    def test_force_mid_run(self):
        def run(backend):
            sim = Simulator(backend=backend)
            sig = Signal("s", 8, init=0)
            sim.register_signal(sig)

            def proc():
                sig.next = 5
                sig.force(0xAA)
                yield Timer(100)
                sig.next = 7
                yield Timer(100)

            sim.fork(proc())
            sim.run()
            return _stats_fingerprint(sim, sig.value.value)

        a, b = _both(run)
        assert a == b
        assert a[-1] == (7,)

    def test_finish_stops_both_backends_identically(self):
        def run(backend):
            sim = Simulator(backend=backend)
            clk = Clock("clk", MHz(100))
            sim.add_module(clk)

            def stopper():
                for _ in range(25):
                    yield RisingEdge(clk.out)
                sim.finish()

            sim.fork(stopper())
            sim.run(until=10_000 * MHz(100))
            return _stats_fingerprint(sim, clk.cycles)

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
            return fired, _stats_fingerprint(sim, clk.cycles)

        a, b = _both(run)
        assert a == b
        assert a[0] is True

    def test_comb_region_parity(self):
        def run(backend):
            sim = Simulator(backend=backend)
            top = Module("top")
            a = top.signal("a", 8, init=0)
            b_ = top.signal("b", 8, init=0)
            sel = top.signal("sel", 1, init=0)
            x = top.signal("x", 8, init=0)
            y = top.signal("y", 8, init=0)
            top.comb(x, ref(a) & ref(b_))
            top.comb(y, mux(ref(sel), ref(x) ^ ref(a), ref(b_) + 1))

            def stim():
                for i in range(200):
                    a.next = (i * 7) & 0xFF
                    b_.next = (i * 13) & 0xFF
                    sel.next = i & 1
                    yield Timer(10)

            top.process(stim, name="stim")
            sim.add_module(top)
            sim.run()
            return _stats_fingerprint(sim, x.value.value, y.value.value)

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
            writer = VcdWriter(stream, timescale="1ps")
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


class TestCompiledCombProperty:
    """The compiled packed-int region equals the four-state reference."""

    def _region(self):
        sim = Simulator()
        top = Module("top")
        a = top.signal("a", 8, init=0)
        b = top.signal("b", 8, init=0)
        sel = top.signal("sel", 1, init=0)
        x = top.signal("x", 8, init=0)
        y = top.signal("y", 8, init=0)
        z = top.signal("z", 4, init=0)
        r_or = top.signal("r_or", 1, init=0)
        r_and = top.signal("r_and", 1, init=0)
        r_xor = top.signal("r_xor", 1, init=0)
        top.comb(x, (ref(a) & ref(b)) | (~ref(a) >> 2))
        top.comb(y, mux(ref(sel), ref(x) + ref(b), ref(a) - 1))
        top.comb(z, ref(y)[2:6] ^ ref(x)[0:4])
        top.comb(r_or, (ref(a) & ref(b)).reduce_or())
        top.comb(r_and, (ref(a) | ref(b)).reduce_and())
        top.comb(r_xor, ref(y).reduce_xor())
        sim.add_module(top)
        return top._comb_region, (a, b, sel)

    @given(
        st.integers(0, 255), st.integers(0, 255), st.integers(0, 1)
    )
    @settings(max_examples=80, deadline=None)
    def test_compiled_matches_eval_lv(self, av, bv, sv):
        region, (a, b, sel) = self._region()
        a.force(av)
        b.force(bv)
        sel.force(sv)
        vals = [s.value.value for s in region.inputs]
        outs = region.fn(*vals)
        env = {}
        for rule in region.ordered:
            env[rule.target] = rule.expr.eval_lv(env)
        for target, out in zip(region.targets, outs):
            ref_lv = env[target]
            assert ref_lv.xmask == 0 and ref_lv.zmask == 0
            assert out == ref_lv.value, (
                f"{target.name}: compiled {out:#x} != reference "
                f"{ref_lv.value:#x} for a={av:#x} b={bv:#x} sel={sv}"
            )

    def test_x_input_uses_four_state_reference(self):
        region, (a, b, sel) = self._region()
        a.force(xbits(8))
        b.force(0x0F)
        sel.force(1)
        env = {}
        for rule in region.ordered:
            env[rule.target] = rule.expr.eval_lv(env)
        # X contaminates: the AND with defined 0x0F keeps X where b is 1
        assert env[region.targets[0]].xmask != 0
