"""The ICAP artifact — ReSim's stand-in for the configuration port.

The real Internal Configuration Access Port accepts one 32-bit
bitstream word per configuration-clock cycle.  The artifact keeps that
interface (``write_word`` is called by the IcapCTRL's drain process at
the configuration clock rate) but instead of touching configuration
memory it runs the :class:`~repro.reconfig.simb.SimBParser` and
dispatches the decoded events to the Extended Portal of the addressed
region.

Malformed streams — garbage words after SYNC, truncated payloads,
writes that never SYNC — are recorded rather than raised, because on
real hardware they fail silently too: the region simply never swaps.
That silence is precisely what makes bitstream-datapath bugs invisible
to Virtual Multiplexing and visible to ReSim (the engine fails to
appear and the system-level scoreboard catches it).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..kernel import Module
from .portal import ExtendedPortal
from .simb import SimBError, SimBParser

__all__ = ["IcapArtifact"]


class IcapArtifact(Module):
    """Configuration-port artifact: parses SimBs, drives portals."""

    def __init__(self, name: str = "icap", parent=None):
        super().__init__(name, parent)
        self.parser = SimBParser()
        self.portals: Dict[int, ExtendedPortal] = {}
        self.sig_data = self.signal("cfg_data", 32, init=0)
        #: running framing-error count, as a signal so waveform/VCD
        #: users see errors the moment they happen (not only post-run)
        self.sig_errors = self.signal("cfg_errors", 16, init=0)
        self.ignored_words = 0
        self.framing_errors: List[str] = []
        self.crc_failures = 0
        self._current_portal: Optional[ExtendedPortal] = None
        self._pending_crc: Optional[int] = None
        # state-saving extension: payload accumulation (for GRESTORE)
        # and the readback FIFO (for FDRO reads)
        self._payload_words: List[int] = []
        self._captured: List[int] = []
        self._readback: List[int] = []
        self.readback_underflows = 0
        #: filler streamed when a read overruns the captured state
        READBACK_PAD = 0xDEADC0DE
        self.READBACK_PAD = READBACK_PAD

    def register_portal(self, portal: ExtendedPortal) -> None:
        if portal.rr_id in self.portals:
            raise ValueError(f"portal for RR {portal.rr_id:#x} already registered")
        self.portals[portal.rr_id] = portal

    # ------------------------------------------------------------------
    # Configuration-port interface (called by IcapCTRL's drain process)
    # ------------------------------------------------------------------
    def write_word(self, word) -> None:
        """Accept one bitstream word (already paced to the config clock)."""
        if not isinstance(word, int):
            # corrupted bus data (X) arrives as a LogicVector; the real
            # port would latch garbage — model it as an ignored word
            self.ignored_words += 1
            return
        self.sig_data.next = word & 0xFFFF_FFFF
        pre_idle = self.parser.state == SimBParser.IDLE
        # the parser clears expected_crc before emitting payload_end, so
        # latch it here: non-None at payload_end means the check passed
        self._pending_crc = self.parser.expected_crc
        try:
            events = self.parser.push(word)
        except SimBError as exc:
            self._record_error(str(exc), crc=self.parser.crc_failures > 0)
            self.parser = SimBParser()  # resync: wait for next SYNC word
            self._abort_current()
            return
        if pre_idle and not events:
            self.ignored_words += 1
        for ev in events:
            self._dispatch(ev)

    def _record_error(self, message: str, crc: bool = False) -> None:
        """Latch a framing error where monitors (and humans) can see it."""
        self.framing_errors.append(message)
        if crc:
            self.crc_failures += 1
        self.sig_errors.next = min(len(self.framing_errors), 0xFFFF)
        self.warn(f"SimB framing error: {message}")
        tr = self.tracer
        if tr is not None:
            tr.instant("reconfig", "framing-error", message=message, crc=crc)

    def resync(self, reason: str) -> None:
        """Force the parser back to IDLE (controller abort path).

        Called by the IcapCTRL when its watchdog kills a wedged transfer
        or when a completed transfer left the stream mid-reconfiguration
        (truncated SimB): the port must not stay stuck waiting for
        payload words that will never arrive.
        """
        if self.parser.state == SimBParser.IDLE:
            return
        self._record_error(f"resync forced ({reason})")
        self.parser = SimBParser()
        self._abort_current()

    def _dispatch(self, ev) -> None:
        if ev.kind == "far":
            portal = self.portals.get(ev.rr_id)
            if portal is None:
                self._record_error(f"FAR addresses unknown RR {ev.rr_id:#x}")
                self._current_portal = None
                return
            self._current_portal = portal
            portal.on_far(ev.module_id)
        elif ev.kind == "payload_start":
            self._payload_words = []
            if self._current_portal is not None:
                self._current_portal.on_payload_start()
        elif ev.kind == "payload":
            self._payload_words.append(ev.value)
        elif ev.kind == "payload_end":
            if self._pending_crc is not None:
                tr = self.tracer
                if tr is not None:
                    tr.instant("reconfig", "crc-ok", crc=self._pending_crc)
                self._pending_crc = None
            if self._current_portal is not None:
                self._current_portal.on_payload_end()
        elif ev.kind == "gcapture":
            if self._current_portal is not None:
                self._captured = self._current_portal.on_gcapture()
        elif ev.kind == "fdro":
            # queue the captured state (padded/truncated to the request)
            state = list(self._captured)
            want = ev.size or 0
            state = (state + [self.READBACK_PAD] * want)[:want]
            self._readback.extend(state)
        elif ev.kind == "grestore":
            if self._current_portal is not None:
                self._current_portal.on_grestore(list(self._payload_words))
        elif ev.kind == "desync":
            if self._current_portal is not None:
                self._current_portal.on_desync()
                self._current_portal = None

    # ------------------------------------------------------------------
    # Readback port (drained by the IcapCTRL's readback DMA)
    # ------------------------------------------------------------------
    def read_word(self) -> int:
        """Pop one word of readback data (FDRO stream)."""
        if not self._readback:
            self.readback_underflows += 1
            return self.READBACK_PAD
        return self._readback.pop(0)

    def _abort_current(self) -> None:
        """A framing error mid-load: stop injecting, leave region empty."""
        portal = self._current_portal
        self._current_portal = None
        if portal is not None and portal.injector.active:
            portal.on_error()
            portal.injector.release()
            portal.on_desync()

    @property
    def mid_reconfiguration(self) -> bool:
        return self.parser.mid_reconfiguration
