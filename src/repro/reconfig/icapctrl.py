"""IcapCTRL — the reconfiguration controller of the user design.

A DMA engine that streams a (simulation-only) bitstream from main
memory into the ICAP configuration port.  It is *user design*: the same
RTL is implemented on the FPGA, and exercising it in simulation is
exactly what distinguishes ReSim from Virtual Multiplexing (under VMux
the module is instantiated but never used, so bugs in this datapath
ship to the lab undetected).

Architecture: two clock domains around a FIFO,

* the **fetch** process (bus clock) bursts words from memory through a
  PLB master port into the FIFO, respecting FIFO space,
* the **drain** process (configuration clock) writes one word per
  config-clock cycle to the ICAP port.

The re-integrated AutoVision design changed both ends of this pipeline
and thereby introduced three of Table III's bugs, all reproducible via
constructor/driver parameters:

* ``arbitrated=False`` — the original *point-to-point* bus attachment;
  on a shared PLB this collides and corrupts the stream (bug.dpr.4),
* ``BSIZE`` register is specified in **bytes**; a driver still
  computing the old word count transfers a quarter of the bitstream
  (bug.dpr.5),
* the configuration clock may be slower than the bus clock (the
  modified design's clocking scheme) which stretches the transfer;
  software that sleeps a fixed delay instead of waiting for the done
  interrupt resets the engines mid-transfer (bug.dpr.6b).

DCR register map (offsets): 0 BADDR, 1 BSIZE (bytes), 2 CTRL
(bit0 = start pulse), 3 STATUS (bit0 done, bit1 busy, bit2 error;
done/error are write-1-to-clear, busy is read-only).

Error reporting: errors reported by the ICAP (framing/CRC) and FIFO
overflows always latch the STATUS error bit.  The active recovery
machinery is opt-in (armed by the system when
``SystemConfig.fault_tolerance`` is set): a configurable watchdog
aborts a transfer that makes no progress for N bus cycles and raises
the done interrupt so the driver can observe the error and retry, and
``detect_truncation`` flags transfers that end while the ICAP is still
mid-reconfiguration.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from ..bus.dcr import DcrRegisterFile
from ..kernel import Event, RisingEdge, Timer

__all__ = ["IcapCtrl"]

STATUS_DONE = 0b001
STATUS_BUSY = 0b010
STATUS_ERROR = 0b100


class IcapCtrl(DcrRegisterFile):
    """The PLB-master bitstream DMA controller."""

    #: words the bitstream FIFO holds between the PLB and the ICAP
    FIFO_DEPTH = 16

    def __init__(
        self,
        name: str,
        base: int,
        bus,
        icap,
        bus_clock,
        cfg_clock,
        arbitrated: bool = True,
        watchdog_cycles: int = 0,
        detect_truncation: bool = False,
        parent=None,
    ):
        super().__init__(name, base, size=8, parent=parent)
        self.bus = bus
        self.icap = icap
        self.bus_clock = bus_clock
        self.cfg_clock = cfg_clock
        #: fault-tolerance knob: abort a transfer that makes no progress
        #: for this many bus cycles (0 disables the watchdog)
        self.watchdog_cycles = watchdog_cycles
        #: fault-tolerance knob: flag a transfer that completes while the
        #: ICAP is still mid-reconfiguration (truncated SimB)
        self.detect_truncation = detect_truncation
        self.port = bus.attach_master(f"{name}_dma", priority=1, arbitrated=arbitrated)
        self.add_register("BADDR", 0)
        self.add_register("BSIZE", 1)
        self.add_register("CTRL", 2, on_write=self._on_ctrl)
        self.add_register("STATUS", 3, on_write=self._on_status)
        # readback DMA (state saving): destination + byte count
        self.add_register("RBADDR", 4)
        self.add_register("RBSIZE", 5)
        self.done_irq = self.signal("rc_done", 1, init=0)
        self._start = Event(f"{name}.start")
        self._fifo: Deque[object] = deque()
        self._fetch_done = False
        #: the fetch process is parked on the start event, so no word can
        #: reach the FIFO before the next transfer starts
        self._fetch_idle = True
        self.fifo_overflows = 0
        self.fifo_high_water = 0
        self.transfers_completed = 0
        self.transfers_aborted = 0
        self.words_fetched = 0
        self.words_drained = 0
        #: fault knob: when True the fetcher ignores FIFO space (test
        #: scenario for FIFO overflow per §IV-B)
        self.ignore_fifo_space = False
        #: transient-fault knobs: freeze the fetch (bus-side DMA stall)
        #: or the drain (ICAP backpressure) until cleared
        self.stall_fetch = False
        self.stall_drain = False
        #: (time_ps, reason) for every error latched into STATUS
        self.error_events: List[Tuple[int, str]] = []
        self._error_latched = False
        self._abort_requested = False
        self._icap_errors_seen = 0
        self._rb_start = Event(f"{name}.rb_start")
        self.words_read_back = 0
        #: open "reconfig"/"icap-transfer" trace span while a DMA runs,
        #: and the drained-word count when it opened
        self._transfer_span = None
        self._span_drained0 = 0
        self.process(self._fetch_proc, "fetch")
        self.process(self._drain_proc, "drain")
        self.process(self._readback_proc, "readback")
        self.process(self._watchdog_proc, "watchdog")

    # ------------------------------------------------------------------
    # Register behaviour
    # ------------------------------------------------------------------
    def _on_ctrl(self, value: int) -> None:
        self.poke("CTRL", 0)
        if value & 1:
            if self.sim is not None:
                self._start.set(self.sim)
        if value & 2:  # readback DMA start
            if self.sim is not None:
                self._rb_start.set(self.sim)

    def _on_status(self, value: int) -> None:
        # write-1-to-clear, per bit (DONE and ERROR only; BUSY reflects
        # the engine state and is read-only).  Clearing one condition
        # must not silently drop the other.
        clear = value & (STATUS_DONE | STATUS_ERROR)
        self.poke("STATUS", self.peek("STATUS") & ~clear)
        if clear & STATUS_ERROR:
            self._error_latched = False

    def _set_status(self, done: bool, busy: bool, error: bool) -> None:
        self.poke(
            "STATUS",
            (STATUS_DONE if done else 0)
            | (STATUS_BUSY if busy else 0)
            | (STATUS_ERROR if error else 0),
        )

    def _latch_error(self, reason: str) -> None:
        """Record an error condition and raise the STATUS error bit."""
        self._error_latched = True
        self.error_events.append(
            (self.sim.time if self.sim is not None else 0, reason)
        )
        self.poke("STATUS", self.peek("STATUS") | STATUS_ERROR)
        self.warn(reason)

    @property
    def status_done(self) -> bool:
        return bool(self.peek("STATUS") & STATUS_DONE)

    @property
    def status_busy(self) -> bool:
        return bool(self.peek("STATUS") & STATUS_BUSY)

    @property
    def status_error(self) -> bool:
        return bool(self.peek("STATUS") & STATUS_ERROR)

    # ------------------------------------------------------------------
    # Fetch process (bus clock domain)
    # ------------------------------------------------------------------
    def _fetch_proc(self):
        while True:
            self._fetch_idle = True
            yield self._start.wait()
            self._fetch_idle = False
            baddr = self.peek("BADDR")
            bsize_bytes = self.peek("BSIZE")
            words = bsize_bytes // 4  # hardware contract: size in BYTES
            tr = self.tracer
            if tr is not None:
                if self._transfer_span is not None:  # restarted mid-flight
                    self._transfer_span.end()
                self._span_drained0 = self.words_drained
                self._transfer_span = tr.begin(
                    "reconfig", "icap-transfer", baddr=baddr, bytes=bsize_bytes
                )
            self._error_latched = False
            self._abort_requested = False
            self._set_status(done=False, busy=True, error=False)
            self.done_irq.next = 0
            self._fetch_done = False
            overflows_at_start = self.fifo_overflows
            remaining = words
            addr = baddr
            while remaining > 0 and not self._abort_requested:
                if self.stall_fetch:
                    yield RisingEdge(self.bus_clock.out)
                    continue
                space = self.FIFO_DEPTH - len(self._fifo)
                if space <= 0 and not self.ignore_fifo_space:
                    yield RisingEdge(self.bus_clock.out)
                    continue
                burst = min(remaining, self.bus.MAX_BURST)
                if not self.ignore_fifo_space:
                    burst = min(burst, space)
                data = yield from self.port.read_burst(addr, burst)
                for w in data:
                    if len(self._fifo) >= self.FIFO_DEPTH:
                        self.fifo_overflows += 1  # word dropped
                        if self.fifo_overflows == overflows_at_start + 1:
                            self._latch_error(
                                "FIFO overflow: bitstream word dropped"
                            )
                        continue
                    self._fifo.append(w)
                self.fifo_high_water = max(self.fifo_high_water, len(self._fifo))
                self.words_fetched += burst
                addr += burst * 4
                remaining -= burst
            self._fetch_done = True

    # ------------------------------------------------------------------
    # Drain process (configuration clock domain)
    # ------------------------------------------------------------------
    def _drain_proc(self):
        """Write one FIFO word to the ICAP per config-clock rising edge.

        Between transfers the FIFO is empty and the fetch process is
        parked, so the drain sleeps on the transfer-start event instead
        of resuming on every edge; from the start of a transfer until
        the FIFO runs dry after the fetch finishes it polls every edge,
        exactly as a free-running drain would.
        """
        cfg = self.cfg_clock.out
        while True:
            if not self._fifo and self._fetch_idle:
                yield self._start.wait()
            yield RisingEdge(cfg)
            if self.stall_drain:
                continue
            if self._fifo:
                word = self._fifo.popleft()
                self.icap.write_word(word)
                self.words_drained += 1
                self._check_icap_errors()
                if self._fetch_done and not self._fifo:
                    if self._abort_requested:
                        continue  # the watchdog already closed this one
                    # transfer complete: latch STATUS.done and pulse the
                    # interrupt line for two config-clock cycles
                    self.transfers_completed += 1
                    if self.detect_truncation and self.icap.mid_reconfiguration:
                        self._latch_error(
                            "transfer completed mid-reconfiguration "
                            "(truncated SimB?)"
                        )
                        self.icap.resync("truncated SimB")
                    self._set_status(
                        done=True, busy=False, error=self._error_latched
                    )
                    if self._transfer_span is not None:
                        self._transfer_span.add_args(
                            words_drained=self.words_drained
                            - self._span_drained0,
                            error=self._error_latched,
                        )
                        self._transfer_span.end()
                        self._transfer_span = None
                    self.done_irq.next = 1
                    yield RisingEdge(cfg)
                    yield RisingEdge(cfg)
                    self.done_irq.next = 0

    def _check_icap_errors(self) -> None:
        """Surface new ICAP framing/CRC errors into STATUS.error."""
        errors = self.icap.framing_errors
        n = len(errors)
        if n > self._icap_errors_seen:
            self._latch_error(f"ICAP reported: {errors[-1]}")
            self._icap_errors_seen = n

    # ------------------------------------------------------------------
    # Watchdog (fault tolerance): abort a wedged transfer
    # ------------------------------------------------------------------
    def _watchdog_proc(self):
        if self.watchdog_cycles <= 0:
            return
        window_ps = self.watchdog_cycles * self.bus_clock.period
        cfg = self.cfg_clock.out
        last = None
        while True:
            yield Timer(window_ps)
            if not self.status_busy:
                last = None
                continue
            progress = (
                self.words_fetched, self.words_drained, self.words_read_back
            )
            if progress != last:
                last = progress
                continue
            # no forward progress for a full window: kill the transfer
            self._abort_transfer(
                f"no DMA progress for {self.watchdog_cycles} bus cycles"
            )
            last = None
            self.done_irq.next = 1
            yield RisingEdge(cfg)
            yield RisingEdge(cfg)
            self.done_irq.next = 0

    def _abort_transfer(self, reason: str) -> None:
        self.transfers_aborted += 1
        self._abort_requested = True
        if self._transfer_span is not None:
            self._transfer_span.add_args(aborted=reason)
            self._transfer_span.end()
            self._transfer_span = None
        # clear any stall condition so the fetch process can unwind
        self.stall_fetch = False
        self.stall_drain = False
        self._fifo.clear()
        self._latch_error(f"transfer aborted: {reason}")
        self.icap.resync(reason)
        # DONE stays low: the driver reads busy=0 + error=1 and retries
        self.poke("STATUS", STATUS_ERROR)

    def clear_done(self) -> None:
        """Acknowledge the transfer-done condition (driver helper)."""
        self._set_status(done=False, busy=False, error=False)
        self._error_latched = False

    # ------------------------------------------------------------------
    # Readback process (state saving): ICAP read port -> memory
    # ------------------------------------------------------------------
    def _readback_proc(self):
        cfg = self.cfg_clock.out
        while True:
            yield self._rb_start.wait()
            dest = self.peek("RBADDR")
            words = self.peek("RBSIZE") // 4  # bytes, like BSIZE
            self._error_latched = False
            self._set_status(done=False, busy=True, error=False)
            buffer = []
            for _ in range(words):
                yield RisingEdge(cfg)  # one word per config-clock cycle
                buffer.append(self.icap.read_word())
                if len(buffer) == self.bus.MAX_BURST:
                    yield from self.port.write_block(dest, buffer)
                    dest += 4 * len(buffer)
                    buffer = []
            if buffer:
                yield from self.port.write_block(dest, buffer)
            self.words_read_back += words
            self._set_status(done=True, busy=False, error=self._error_latched)
            self.done_irq.next = 1
            yield RisingEdge(cfg)
            yield RisingEdge(cfg)
            self.done_irq.next = 0
