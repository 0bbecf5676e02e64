"""The embedded control software of the demonstrator (Fig. 2).

This is the HAL-level model of the PowerPC program: a pair of
concurrent threads matching the paper's pipelined processing flow,

* the **engine manager** — per frame: camera DMA, CIE run,
  reconfigure-to-ME, ME run, reconfigure-back-to-CIE, all sequenced by
  the engine-done ISR and the reconfiguration-done status,
* the **drawer** — renders the *previous* frame's motion vectors into
  the output buffer while the engines process the current frame.

Every driver access is cycle-accurate: control registers go over the
DCR daisy chain, bulk data over the processor's PLB port, and an
instruction-cost model paces the drawing loop so the "PowerPC Interrupt
Handler" row of Table II has a measurable simulated time.

The module also hosts the *reconfiguration strategies*, one per
simulation method:

* :class:`ResimReconfigStrategy` — the real driver: program the
  IcapCTRL's BADDR/BSIZE, kick the DMA, poll its DCR status,
* :class:`VmuxReconfigStrategy` — the "hacked" driver of Virtual
  Multiplexing: write the simulation-only ``engine_signature`` register
  (zero-delay swap, IcapCTRL never touched),
* :class:`DcsReconfigStrategy` — the Dynamic-Circuit-Switch variant:
  signature write plus a constant-delay wait.

Software-side historical bugs (``dpr.1``, ``dpr.3``, ``dpr.5``,
``dpr.6b``, ``sw.1``, ``sw.2``, ``hw.s1``..``hw.s3``) are re-created by
fault keys passed through the :class:`~repro.system.autovision.SystemConfig`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..kernel import Event, First, Mailbox, Module, RisingEdge, Timer
from ..kernel.logic import LogicVector
from ..video.formats import pack_pixels, unpack_vector_bytes
from .autovision import IRQ_ENGINE_DONE, AutoVisionSystem

__all__ = [
    "AutoVisionSoftware",
    "ReconfigStrategy",
    "ResimReconfigStrategy",
    "VmuxReconfigStrategy",
    "DcsReconfigStrategy",
    "render_motion_overlay",
]

#: IcapCtrl STATUS bits (done/error are write-1-to-clear)
RC_STATUS_DONE = 0b001
RC_STATUS_BUSY = 0b010
RC_STATUS_ERROR = 0b100
#: EngineRegs STATUS bits
ENG_STATUS_DONE = 0b001


def render_motion_overlay(
    dx: np.ndarray, dy: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """The drawing routine's pure math: motion magnitude image.

    Shared by the software (drawing from engine output) and the
    scoreboard (drawing from the golden vectors), so any mismatch is
    attributable to the hardware/driver, not the renderer.
    """
    mag = (np.abs(dx.astype(np.int16)) + np.abs(dy.astype(np.int16))) * 48
    img = np.clip(mag, 0, 255).astype(np.uint8)
    img[~valid] = 0
    return img


class ReconfigStrategy:
    """How the software performs "reconfigure region to module X"."""

    name = "abstract"

    def reconfigure(self, sw: "AutoVisionSoftware", module_id: int):
        raise NotImplementedError
        yield  # pragma: no cover


class ResimReconfigStrategy(ReconfigStrategy):
    """The real driver: DMA a partial bitstream through the IcapCTRL."""

    name = "resim"

    #: DCR status poll spacing in bus cycles
    POLL_CYCLES = 64

    def reconfigure(self, sw: "AutoVisionSoftware", module_id: int):
        system = sw.system
        ctrl = system.icapctrl
        baddr = system.bitstream_base(module_id)
        size_bytes = system.bitstream_size_bytes()
        if "dpr.5" in sw.faults:
            # stale driver: still computes the size in words
            size_bytes //= 4
        yield from sw.dcr_write(ctrl.addr_of("BADDR"), baddr)
        yield from sw.dcr_write(ctrl.addr_of("BSIZE"), size_bytes)
        yield from sw.dcr_write(ctrl.addr_of("CTRL"), 1)

        if "dpr.6b" in sw.faults:
            # Fixed "dummy loop" delay calibrated on the ORIGINAL design:
            # 100 MHz configuration clock (10 ns/word) plus a 70% safety
            # margin.  Sufficient there — but too short once the modified
            # clocking scheme halved the configuration clock (~21 ns/word).
            words = size_bytes // 4
            yield Timer(words * 17_000)
            return True

        period = system.bus_clock.period
        deadline = sw.sim.time + sw.reconfig_timeout_ps
        while sw.sim.time < deadline:
            status = yield from sw.dcr_read(ctrl.addr_of("STATUS"))
            if status is not None:
                if status & RC_STATUS_DONE:
                    # W1C acknowledge of done only; a latched error bit
                    # is left for the recovery wrapper to inspect
                    yield from sw.dcr_write(
                        ctrl.addr_of("STATUS"), RC_STATUS_DONE
                    )
                    if sw.fault_tolerance and status & RC_STATUS_ERROR:
                        return False
                    return True
                if (
                    sw.fault_tolerance
                    and status & RC_STATUS_ERROR
                    and not status & RC_STATUS_BUSY
                ):
                    # watchdog abort: transfer died without reaching done
                    return False
            yield Timer(self.POLL_CYCLES * period)
        sw.record_anomaly(f"reconfiguration to module {module_id:#x} timed out")
        return False


class VmuxReconfigStrategy(ReconfigStrategy):
    """The hacked driver of Virtual Multiplexing (Fig. 3).

    Module swapping is requested by writing the simulation-only
    ``engine_signature`` register: instantaneous, no bitstream, no
    IcapCTRL involvement.
    """

    name = "vmux"

    def reconfigure(self, sw: "AutoVisionSoftware", module_id: int):
        sig = sw.system.vmux.signature
        yield from sw.dcr_write(sig.addr_of("SIG"), module_id)
        return True


class DcsReconfigStrategy(ReconfigStrategy):
    """The hacked driver of a Dynamic-Circuit-Switch-style simulation.

    Like VMux the swap is requested through the simulation-only
    signature register, but DCS models a (constant) reconfiguration
    delay, so the driver sleeps for that designer-chosen duration —
    which is also why DCS cannot expose timing bugs like ``dpr.6b``:
    the simulated delay and the driver's wait are the *same constant*
    by construction.
    """

    name = "dcs"

    #: driver margin beyond the modeled swap window, in bus cycles
    MARGIN_CYCLES = 16

    def reconfigure(self, sw: "AutoVisionSoftware", module_id: int):
        dcs = sw.system.dcs
        yield from sw.dcr_write(dcs.signature.addr_of("SIG"), module_id)
        cycles = dcs.SWAP_DELAY_CYCLES + self.MARGIN_CYCLES
        yield Timer(cycles * sw.system.bus_clock.period)
        return True


class AutoVisionSoftware(Module):
    """The control program: engine manager + drawer threads."""

    def __init__(
        self,
        system: AutoVisionSystem,
        parent=None,
    ):
        super().__init__("software", parent or system)
        self.system = system
        self.faults = system.config.faults
        self.strategy: ReconfigStrategy = {
            "resim": ResimReconfigStrategy,
            "vmux": VmuxReconfigStrategy,
            "dcs": DcsReconfigStrategy,
        }[system.config.method]()
        self.anomalies: List[str] = []
        self.frames_processed = 0
        self.frames_drawn = 0
        self.finished = False
        # fault-tolerance / recovery policy (see SystemConfig)
        self.fault_tolerance = system.config.fault_tolerance
        self.max_reconfig_attempts = system.config.max_reconfig_attempts
        self.retry_backoff_cycles = system.config.retry_backoff_cycles
        self.frames_dropped = 0
        #: (time_ps, message) records of every recovery action taken
        self.recovery_log: List[Tuple[int, str]] = []
        #: fired (data=frame index) after each frame's overlay is drawn
        self.frame_drawn = Event("frame_drawn")
        #: fired once when the requested run completes or aborts
        self.run_complete = Event("run_complete")
        self._draw_queue: Optional[Mailbox] = None
        # generous default timeouts, scaled at run() from the geometry
        self.engine_timeout_ps = 0
        self.reconfig_timeout_ps = 0
        #: (phase name, start ps, end ps) records for Table II accounting
        self.phase_log: List[Tuple[str, int, int]] = []
        #: which phase the engine-manager thread is in right now — the
        #: Table II profiler samples this while stepping the simulation
        self.current_phase = "idle"
        #: open firmware-phase trace spans, keyed by phase name
        self._phase_spans = {}

    # ------------------------------------------------------------------
    # Driver primitives
    # ------------------------------------------------------------------
    def record_anomaly(self, message: str) -> None:
        self.anomalies.append(f"t={self.sim.time}ps: {message}")

    def dcr_read(self, addr: int):
        """DCR read; returns int, or None (and records) on X/garbage."""
        value = yield from self.system.dcr.read(addr)
        if isinstance(value, LogicVector):
            self.record_anomaly(
                f"DCR read of {addr:#x} returned {value!r} "
                f"(daisy chain corrupted?)"
            )
            return None
        return value

    def dcr_write(self, addr: int, data: int):
        ok = yield from self.system.dcr.write(addr, data)
        if not ok:
            self.record_anomaly(f"DCR write to {addr:#x} was lost")
        return ok

    def _wait_engine_done(self):
        """The engine-done ISR: wait for irq, read ISR, acknowledge."""
        intc = self.system.intc
        if not intc.irq.is_high:
            fired = yield First(
                RisingEdge(intc.irq), Timer(self.engine_timeout_ps)
            )
            if isinstance(fired, Timer):
                self.record_anomaly("engine-done interrupt never arrived")
                return False
        pending = yield from self.dcr_read(intc.addr_of("ISR"))
        if pending is None:
            return False
        if "sw.2" not in self.faults:
            yield from self.dcr_write(intc.addr_of("ISR"), pending)  # ack
        if not pending & (1 << IRQ_ENGINE_DONE):
            self.record_anomaly(
                f"spurious interrupt: pending={pending:#x} without "
                f"engine-done"
            )
            return False
        return True

    def _start_engine(self, *, reset: bool):
        regs = self.system.engine_regs
        if reset:
            yield from self.dcr_write(regs.addr_of("CTRL"), 0b10)
        yield from self.dcr_write(regs.addr_of("CTRL"), 0b01)

    def _set_isolation(self, enabled: bool):
        regs = self.system.engine_regs
        yield from self.dcr_write(regs.addr_of("ISO"), 1 if enabled else 0)

    def _log_recovery(self, message: str) -> None:
        self.recovery_log.append((self.sim.time, message))
        tr = self.tracer
        if tr is not None:
            tr.instant("firmware", "recovery", message=message)

    def _clear_reconfig_error(self):
        """Read IcapCtrl STATUS; W1C-clear and report a latched error."""
        if not isinstance(self.strategy, ResimReconfigStrategy):
            return False
        ctrl = self.system.icapctrl
        status = yield from self.dcr_read(ctrl.addr_of("STATUS"))
        if status is None or not status & RC_STATUS_ERROR:
            return False
        yield from self.dcr_write(ctrl.addr_of("STATUS"), RC_STATUS_ERROR)
        return True

    def _reconfigure_with_recovery(self, target_id: int, label: str):
        """Reconfigure with the bounded-retry / degradation policy.

        Returns ``"ok"`` (module loaded, isolation dropped),
        ``"degraded"`` (retries exhausted — the fallback engine was
        reloaded instead and the caller should drop this frame) or
        ``"fatal"`` (nothing could be loaded; isolation stays armed so
        the static side remains X-free, and the run should abort).

        Without ``fault_tolerance`` this is the original unprotected
        sequence: one attempt, ``"ok"`` or ``"fatal"``.
        """
        tr = self.tracer
        rspan = (
            tr.begin("firmware", "reconfigure", target=target_id, label=label)
            if tr is not None
            else None
        )
        outcome = yield from self._reconfigure_body(target_id, label, tr)
        if rspan is not None:
            rspan.add_args(outcome=outcome)
            rspan.end()
        return outcome

    def _reconfigure_body(self, target_id: int, label: str, tr):
        system = self.system
        arm_isolation = "dpr.1" not in self.faults
        if not self.fault_tolerance:
            if arm_isolation:
                yield from self._set_isolation(True)
            ok = yield from self.strategy.reconfigure(self, target_id)
            yield from self._set_isolation(False)
            return "ok" if ok else "fatal"

        period = system.bus_clock.period
        for attempt in range(1, self.max_reconfig_attempts + 1):
            if attempt > 1:
                # reload the SimB from (modeled) non-volatile storage —
                # this is what makes memory-corruption transients
                # recoverable — then back off exponentially
                system.refresh_bitstream(target_id)
                backoff = self.retry_backoff_cycles << (attempt - 2)
                if tr is not None:
                    tr.instant(
                        "firmware", "retry-backoff",
                        attempt=attempt, cycles=backoff,
                    )
                yield Timer(backoff * period)
            aspan = (
                tr.begin("firmware", "attempt", n=attempt, label=label)
                if tr is not None
                else None
            )
            if arm_isolation:
                yield from self._set_isolation(True)
            ok = yield from self.strategy.reconfigure(self, target_id)
            error = yield from self._clear_reconfig_error()
            if aspan is not None:
                aspan.add_args(ok=bool(ok and not error))
                aspan.end()
            if ok and not error:
                yield from self._set_isolation(False)
                if attempt > 1:
                    self._log_recovery(
                        f"{label}: recovered on attempt {attempt}"
                    )
                return "ok"
            # keep isolation armed: the region may be half-configured
            self._log_recovery(f"{label}: attempt {attempt} failed")

        # retries exhausted — degrade gracefully: put the steady-state
        # resident engine (CIE) back so the pipeline can keep running,
        # at the cost of dropping this frame
        fallback_id = system.cie.ENGINE_ID
        system.refresh_bitstream(fallback_id)
        ok = yield from self.strategy.reconfigure(self, fallback_id)
        error = yield from self._clear_reconfig_error()
        if ok and not error:
            yield from self._set_isolation(False)
            self._log_recovery(
                f"{label}: degraded — reloaded fallback engine "
                f"{fallback_id:#x}, dropping frame"
            )
            return "degraded"
        # nothing loads: leave isolation armed (X-free static side)
        self.record_anomaly(f"{label}: unrecoverable reconfiguration failure")
        self._log_recovery(f"{label}: unrecoverable, isolation kept armed")
        return "fatal"

    def _log_phase(self, name: str, start_ps: int) -> None:
        self.phase_log.append((name, start_ps, self.sim.time))
        span = self._phase_spans.pop(name, None)
        if span is not None:
            span.end()

    def _enter_phase(self, name: str) -> int:
        self.current_phase = name
        tr = self.tracer
        if tr is not None:
            # the drawer runs concurrently with the engine-manager
            # phases, so it gets its own track (Chrome "X" events on one
            # tid must nest; overlapping siblings would render garbled)
            track = "drawer" if name == "isr_draw" else ""
            self._phase_spans[name] = tr.begin("firmware", name, track=track)
        return self.sim.time

    # ------------------------------------------------------------------
    # The engine manager (main thread)
    # ------------------------------------------------------------------
    def run(self, n_frames: int):
        """Process ``n_frames`` frames; fork this generator to start."""
        system = self.system
        cfg = system.config
        mm = system.memory_map
        regs = system.engine_regs
        self._draw_queue = Mailbox(self.sim, "draw_queue")
        drawer = self.sim.fork(self._drawer(), "software.drawer", owner=self)

        # scale timeouts to the workload (4 frames' worth of cycles)
        frame_px = cfg.width * cfg.height
        self.engine_timeout_ps = 16 * frame_px * system.bus_clock.period
        self.reconfig_timeout_ps = (
            64 * (cfg.simb_payload_words + 64) * system.cfg_clock.period
        )

        # one-time setup (the "hello world" of the boot flow)
        width = cfg.width - 4 if "hw.s3" in self.faults else cfg.width
        irq_mask = (
            (1 << 1) if "hw.s2" in self.faults else (1 << IRQ_ENGINE_DONE)
        )
        yield from self.dcr_write(system.intc.addr_of("IER"), irq_mask)
        yield from self.dcr_write(regs.addr_of("WIDTH"), width)
        yield from self.dcr_write(regs.addr_of("HEIGHT"), cfg.height)
        yield from self.dcr_write(regs.addr_of("RADIUS"), cfg.radius)

        ok = True
        tr = self.tracer
        for f in range(n_frames):
            fspan = (
                tr.begin("firmware", "frame", frame=f)
                if tr is not None
                else None
            )
            status = yield from self._process_frame(f)
            if fspan is not None:
                fspan.add_args(status=status)
                fspan.end()
            if status == "ok":
                self.frames_processed += 1
            elif status == "dropped":
                self.frames_dropped += 1
                self._log_recovery(
                    f"frame {f} dropped (degraded reconfiguration)"
                )
            else:
                ok = False
                break

        # wait for the drawer to drain, then report
        if ok:
            deadline = self.sim.time + self.engine_timeout_ps
            while self.frames_drawn < self.frames_processed:
                if self.sim.time >= deadline:
                    self.record_anomaly("drawer did not finish")
                    break
                yield Timer(10_000)
        drawer.kill()
        self.finished = True
        self.run_complete.set(self.sim, self.frames_processed)

    def _process_frame(self, f: int):
        """One frame; returns ``"ok"``, ``"dropped"`` or ``"abort"``."""
        system = self.system
        cfg = system.config
        mm = system.memory_map
        regs = system.engine_regs

        # -- camera DMA of frame f ---------------------------------------
        t0 = self._enter_phase("video_in")
        in_base = mm.input[f % 2]
        if "hw.s1" in self.faults:
            in_base += 0x100  # misintegrated video DMA base
        if cfg.video_backdoor:
            system.video_in.send_frame_backdoor(f, system.memory, mm.input[f % 2])
        else:
            yield from system.video_in.send_frame(f, in_base)
        self._log_phase("video_in", t0)

        # -- CIE phase ------------------------------------------------------
        t0 = self._enter_phase("cie")
        yield from self.dcr_write(regs.addr_of("SRC1"), mm.input[f % 2])
        yield from self.dcr_write(regs.addr_of("DST"), mm.feat[f % 2])
        yield from self._start_engine(reset=True)
        if not (yield from self._wait_engine_done()):
            return "abort"
        self._log_phase("cie", t0)

        # -- DPR #1: CIE -> ME ------------------------------------------------
        t0 = self._enter_phase("dpr")
        outcome = yield from self._reconfigure_with_recovery(
            system.me.ENGINE_ID, f"frame {f} dpr#1"
        )
        self._log_phase("dpr", t0)
        if outcome != "ok":
            return "dropped" if outcome == "degraded" else "abort"

        # -- ME phase -----------------------------------------------------------
        t0 = self._enter_phase("me")
        curr = mm.feat[f % 2]
        prev = mm.feat[(f - 1) % 2] if f > 0 else mm.feat[f % 2]
        if "sw.1" in self.faults:
            curr, prev = prev, curr
        yield from self.dcr_write(regs.addr_of("SRC1"), curr)
        yield from self.dcr_write(regs.addr_of("SRC2"), prev)
        yield from self.dcr_write(regs.addr_of("DST"), mm.vec[f % 2])
        yield from self._start_engine(reset="dpr.3" not in self.faults)
        if not (yield from self._wait_engine_done()):
            return "abort"
        self._log_phase("me", t0)

        # -- DPR #2: ME -> CIE ---------------------------------------------------
        t0 = self._enter_phase("dpr")
        outcome = yield from self._reconfigure_with_recovery(
            system.cie.ENGINE_ID, f"frame {f} dpr#2"
        )
        self._log_phase("dpr", t0)
        if outcome != "ok":
            return "dropped" if outcome == "degraded" else "abort"

        # -- hand the finished vectors to the drawing thread -----------------
        self._draw_queue.try_put((f, mm.vec[f % 2], mm.out[f % 2]))
        self.current_phase = "idle"
        return "ok"

    # ------------------------------------------------------------------
    # The drawer (ISR/background thread of the pipelined flow)
    # ------------------------------------------------------------------
    def _drawer(self):
        system = self.system
        cfg = system.config
        port = system.cpu_port
        period = system.bus_clock.period
        words = cfg.width * cfg.height // 4
        while True:
            f, vec_base, out_base = yield from self._draw_queue.get()
            t0 = self._enter_phase("isr_draw")
            # read the byte-packed vectors in bursts, modelling the
            # instruction cost of unpacking and drawing each word: one
            # bus cycle per word on top of its bus transfer (the
            # PPC440-class core sustains about one drawing-loop
            # iteration per bus cycle once the data is loaded)
            chunk = 64
            raw: List[int] = []
            addr = vec_base
            remaining = words
            while remaining:
                n = min(chunk, remaining)
                data = yield from port.read_block(addr, n)
                raw.extend(w if isinstance(w, int) else 0 for w in data)
                yield Timer(n * period)
                addr += n * 4
                remaining -= n
            dx, dy, valid = unpack_vector_bytes(
                np.array(raw, dtype=np.uint32),
                (cfg.height, cfg.width),
                cfg.radius,
            )
            overlay = render_motion_overlay(dx, dy, valid)
            out_words = pack_pixels(overlay.ravel())
            addr = out_base
            offset = 0
            while offset < len(out_words):
                n = min(chunk, len(out_words) - offset)
                yield from port.write_block(
                    addr, out_words[offset : offset + n].tolist()
                )
                addr += n * 4
                offset += n
            self.frames_drawn += 1
            self._log_phase("isr_draw", t0)
            self.frame_drawn.set(self.sim, f)
