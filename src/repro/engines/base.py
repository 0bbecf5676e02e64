"""Common machinery of the reconfigurable video engines.

A :class:`VideoEngine` is a PLB bus-master pipeline with the classic
FETCH → PROCESS → WRITEBACK row loop.  Its timing model has two knobs
per engine (:class:`EngineTiming`):

``cycles_per_pixel``
    datapath throughput — sets the *simulated* time a frame takes
    (Table II's "Simulated Time" column),
``activity_per_pixel``
    internal signal-toggle density — sets how many kernel events the
    datapath generates per pixel, i.e. how *expensive* the engine is to
    simulate per unit of simulated time (Table II's observation that
    the CIE, with more signal flipping, simulates slower than the ME
    despite covering less simulated time).

Reset discipline
----------------
A freshly (re)configured engine powers up with undefined internal state
and **must be reset before its first start** — the LUT/FF contents of a
partial bitstream do not include a reset network.  An engine started
while dirty produces corrupted output and flags an error: this is the
failure mode of the paper's "engine reset bug" (``bug.dpr.6b``), where
the software reset the RR while the bitstream was still in flight (the
pulse was lost because no engine was present) and then started a dirty
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..kernel import Event, Module, Timer

__all__ = ["EngineTiming", "EngineParams", "VideoEngine"]


@dataclass(frozen=True)
class EngineTiming:
    """Per-engine throughput and signal-activity parameters."""

    cycles_per_pixel: float
    activity_per_pixel: float

    def __post_init__(self) -> None:
        if self.cycles_per_pixel <= 0:
            raise ValueError("cycles_per_pixel must be positive")
        if self.activity_per_pixel < 0:
            raise ValueError("activity_per_pixel must be >= 0")


@dataclass(frozen=True)
class EngineParams:
    """A frame job, as latched from the external register file."""

    src1: int
    src2: int
    dst: int
    width: int
    height: int
    radius: int = 2

    def validate(self) -> None:
        if self.width % 4 or self.width < 8 or self.height < 8:
            raise ValueError(f"invalid frame geometry {self.width}x{self.height}")


class VideoEngine(Module):
    """Base class of the CIE and ME reconfigurable engines."""

    #: module ID encoded in SimBs / used by the portal (subclass sets)
    ENGINE_ID: int = 0

    def __init__(self, name: str, clock, timing: EngineTiming, parent=None):
        super().__init__(name, parent)
        self.clock = clock
        self.timing = timing
        # Wired by the RR slot when the engine is installed:
        self.port = None  # PLB master port (shared RR bus interface)
        self.regs = None  # EngineRegs in the static region
        # Engine outputs (the RR boundary IO the wrapper mux watches)
        self.done_out = self.signal("done", 1, init=0)
        self.busy_out = self.signal("busy", 1, init=0)
        self.error_out = self.signal("error", 1, init=0)
        self.io_activity = self.signal("io_act", 8, init=0)
        self.dp_activity = self.signal("dp_act", 32, init=0)
        # Reconfiguration state
        self.present = False  # configured into the RR right now
        self.is_reset = False  # reset applied since last swap-in
        self.start_event = Event(f"{name}.start")
        self.frames_processed = 0
        self.frames_corrupted = 0
        self.restores = 0
        self.restore_errors = 0
        self._lfsr = 0xACE1
        self._io_toggle = 0
        self.process(self._main, "engine")

    # ------------------------------------------------------------------
    # Slot interface
    # ------------------------------------------------------------------
    def install(self, port, regs) -> None:
        """Connect the engine to the RR socket's bus port and registers."""
        self.port = port
        self.regs = regs

    def swap_in(self) -> None:
        """The RR has just been configured with this engine."""
        self.present = True
        self.is_reset = False  # bitstreams do not initialize user state

    def swap_out(self) -> None:
        self.present = False
        self.busy_out.next = 0
        self.done_out.next = 0

    def reset(self) -> None:
        """Hardware reset — only effective while physically present."""
        if not self.present:
            return  # the pulse disappears into an unconfigured region
        self.is_reset = True
        self.done_out.next = 0
        self.error_out.next = 0

    def trigger_start(self) -> None:
        """Start pulse from the register block (reaches present engines)."""
        if not self.present:
            return
        self.start_event.set(self.sim)

    # ------------------------------------------------------------------
    # State saving / restoration (ReSim's GCAPTURE/GRESTORE extension)
    # ------------------------------------------------------------------
    #: marker word identifying a captured state vector of this engine
    STATE_MAGIC_BASE = 0x57A7_E000

    @property
    def state_magic(self) -> int:
        return self.STATE_MAGIC_BASE | self.ENGINE_ID

    def capture_state(self):
        """Snapshot the architectural (flip-flop) state of the engine.

        Returned as a word vector the readback path streams to memory;
        :meth:`restore_state` is its exact inverse.
        """
        return [
            self.state_magic,
            1 if self.is_reset else 0,
            self._lfsr & 0xFFFF_FFFF,
            self._io_toggle & 0xFF,
            self.frames_processed & 0xFFFF_FFFF,
            self.frames_corrupted & 0xFFFF_FFFF,
        ]

    #: number of words :meth:`capture_state` produces
    STATE_WORDS = 6

    def restore_state(self, words) -> bool:
        """Load a previously captured state vector; False on mismatch.

        A vector captured from a *different* engine type (wrong magic)
        is rejected and leaves the engine dirty — restoring the wrong
        module's state is a real integration bug this lets tests model.
        """
        words = list(words)
        if len(words) < self.STATE_WORDS or words[0] != self.state_magic:
            self.restore_errors += 1
            return False
        self.is_reset = bool(words[1] & 1)
        self._lfsr = words[2] & 0xFFFF_FFFF
        self._io_toggle = words[3] & 0xFF
        self.frames_processed = words[4]
        self.frames_corrupted = words[5]
        self.restores += 1
        return True

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def _latch_params(self) -> EngineParams:
        regs = self.regs
        return EngineParams(
            src1=regs.peek("SRC1"),
            src2=regs.peek("SRC2"),
            dst=regs.peek("DST"),
            width=regs.peek("WIDTH"),
            height=regs.peek("HEIGHT"),
            radius=regs.peek("RADIUS"),
        )

    def _main(self):
        while True:
            yield self.start_event.wait()
            if not self.present:
                continue
            params = self._latch_params()
            params.validate()
            corrupted = not self.is_reset
            self.busy_out.next = 1
            self.done_out.next = 0
            self.error_out.next = 0
            if self.regs is not None:
                self.regs.set_status(done=False, busy=True, error=False)
            completed = yield from self._process_frame(params, corrupted)
            if not completed:
                # swapped out mid-frame: abort silently (torn output)
                continue
            self.frames_processed += 1
            if corrupted:
                self.frames_corrupted += 1
            self.busy_out.next = 0
            self.error_out.next = 1 if corrupted else 0
            if self.regs is not None:
                self.regs.set_status(done=True, busy=False, error=corrupted)
            # done is a two-cycle pulse so the level-latching INTC sees
            # exactly one interrupt per frame; STATUS.done stays latched
            # for software polling
            self.done_out.next = 1
            yield Timer(2 * self.clock.period)
            self.done_out.next = 0

    def _process_frame(self, params: EngineParams, corrupted: bool):
        """Subclass hook; returns True if the frame ran to completion."""
        raise NotImplementedError
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Timing/activity helpers for subclasses
    # ------------------------------------------------------------------
    def _compute_row(self, width: int):
        """Consume one row's compute time, emitting datapath activity.

        Datapath toggles may be denser than one per clock cycle (a real
        pipeline flips many nets per cycle), so activity is spread on a
        sub-cycle time grid while the total simulated time stays exactly
        ``width * cycles_per_pixel`` clock cycles.
        """
        cycles = max(1, int(width * self.timing.cycles_per_pixel))
        period = self.clock.period
        total_ps = cycles * period
        toggles = int(width * self.timing.activity_per_pixel)
        if toggles <= 0:
            yield Timer(total_ps)
            return
        step = max(1, total_ps // toggles)
        tick = Timer(step)  # fired before each re-yield, so reusable
        consumed = 0
        for _ in range(toggles):
            if consumed + step > total_ps:
                break
            yield tick
            consumed += step
            # 16-bit Fibonacci LFSR models pseudo-random datapath toggling
            lfsr = self._lfsr
            bit = ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1
            self._lfsr = (lfsr >> 1) | (bit << 15)
            self.dp_activity.next = self._lfsr
        if consumed < total_ps:
            yield Timer(total_ps - consumed)

    def _pulse_io(self) -> None:
        """Mark engine-IO activity (one toggle per bus burst)."""
        self._io_toggle = (self._io_toggle + 1) & 0xFF
        self.io_activity.next = self._io_toggle

    def _read_words(self, addr: int, count: int):
        words = yield from self.port.read_block(addr, count)
        self._pulse_io()
        # X words (bus corruption) decode as zero but are counted
        clean = np.fromiter(
            (w if isinstance(w, int) else 0 for w in words),
            dtype=np.uint32,
            count=len(words),
        )
        return clean

    def _write_words(self, addr: int, words: np.ndarray):
        yield from self.port.write_block(addr, [int(w) for w in words])
        self._pulse_io()
