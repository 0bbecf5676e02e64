"""Simulation-only bitstreams (SimB) — Table I of the paper.

A SimB mimics the *impact* of a real partial bitstream on the user
design without modeling bit-level configuration memory: it keeps the
real bitstream's command framing (SYNC word, Type-1/Type-2 packet
headers, WCFG and DESYNC commands) but replaces the frame data with a
designer-chosen number of pseudo-random filler words, and encodes the
target as numeric IDs in the Frame Address Register (FAR) word::

    FA = (rr_id << 24) | (module_id << 16)

The example of Table I (reconfigure region 0x1 with module 0x2)::

    0xAA995566    SYNC        -> enter "DURING reconfiguration"
    0x20000000    NOP
    0x30002001    Type1 Write FAR
    0x01020000      FA: rr=0x01, module=0x02
    0x30008001    Type1 Write CMD
    0x00000001      WCFG
    0x30004000    Type2 Write FDRI
    0x50000004      size = 4
    <4 random words>  first starts error injection,
                      last ends it and triggers module swapping
    0x30008001    Type1 Write CMD
    0x0000000D      DESYNC    -> leave "DURING reconfiguration"

The payload length is a free parameter: short SimBs (~100 words) give
fast debug turnaround, a 129K-word SimB matches the real bitstream's
transfer time exactly, and odd lengths exercise FIFO corner cases
(§IV-B).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "SYNC_WORD",
    "NOOP",
    "TYPE1_WRITE_FAR",
    "TYPE1_WRITE_CMD",
    "TYPE1_WRITE_CRC",
    "TYPE2_WRITE_FDRI",
    "TYPE2_READ_FDRO",
    "WCFG_CMD",
    "DESYNC_CMD",
    "GCAPTURE_CMD",
    "GRESTORE_CMD",
    "far_encode",
    "far_decode",
    "payload_crc",
    "build_simb",
    "build_capture_simb",
    "build_restore_simb",
    "decode_simb",
    "SimBEvent",
    "SimBParser",
    "SimBError",
    "DEFAULT_PAYLOAD_WORDS",
    "REAL_BITSTREAM_WORDS",
]

SYNC_WORD = 0xAA995566
NOOP = 0x20000000
TYPE1_WRITE_FAR = 0x30002001
TYPE1_WRITE_CMD = 0x30008001
#: Type-1 write of the (simulated) CRC register — announces the
#: expected CRC32 of the FDRI payload *before* the payload so the ICAP
#: can verify integrity incrementally and refuse to commit the swap on
#: the final word of a corrupted stream
TYPE1_WRITE_CRC = 0x30000001
TYPE2_WRITE_FDRI = 0x30004000
#: Type-2 FDRI length words carry the size in the low 27 bits
TYPE2_LEN_TAG = 0x50000000
TYPE2_LEN_MASK = 0x07FF_FFFF
WCFG_CMD = 0x00000001
DESYNC_CMD = 0x0000000D
#: capture flip-flop state into configuration memory (state saving)
GCAPTURE_CMD = 0x0000000C
#: restore flip-flop state from the written frame data (state restoration)
GRESTORE_CMD = 0x0000000A
#: Type-2 *read* of the Frame Data Register Output (readback)
TYPE2_READ_FDRO = 0x28004000

#: the paper's short debug SimB (4K words) and the real bitstream length
DEFAULT_PAYLOAD_WORDS = 4 * 1024
REAL_BITSTREAM_WORDS = 129 * 1024


class SimBError(ValueError):
    """Malformed SimB detected by the ICAP artifact's parser."""


def far_encode(rr_id: int, module_id: int) -> int:
    """Frame address encoding the target region and module IDs."""
    if not 0 <= rr_id <= 0xFF:
        raise ValueError(f"rr_id {rr_id:#x} does not fit in 8 bits")
    if not 0 <= module_id <= 0xFF:
        raise ValueError(f"module_id {module_id:#x} does not fit in 8 bits")
    return (rr_id << 24) | (module_id << 16)


def far_decode(fa: int) -> Tuple[int, int]:
    """Inverse of :func:`far_encode`: returns (rr_id, module_id)."""
    return (fa >> 24) & 0xFF, (fa >> 16) & 0xFF


def payload_crc(words: Iterable[int]) -> int:
    """CRC32 over the FDRI payload, words serialized big-endian."""
    arr = np.asarray(list(words), dtype=np.uint64).astype(np.uint32)
    return zlib.crc32(arr.astype(">u4").tobytes()) & 0xFFFF_FFFF


def build_simb(
    rr_id: int,
    module_id: int,
    payload_words: int = DEFAULT_PAYLOAD_WORDS,
    seed: Optional[int] = None,
    leading_noops: int = 1,
    crc: bool = False,
) -> List[int]:
    """Construct a SimB word list in Table I's format.

    With ``crc=True`` a Type-1 CRC packet carrying the CRC32 of the
    payload is inserted before the FDRI header (the fault-tolerant
    bitstream format; the ICAP rejects a corrupted payload instead of
    swapping the module in).
    """
    if payload_words < 1:
        raise ValueError("a SimB needs at least one payload word")
    if payload_words > TYPE2_LEN_MASK:
        raise ValueError(f"payload of {payload_words} words exceeds Type-2 range")
    rng = np.random.default_rng(
        seed if seed is not None else (rr_id << 8) | module_id
    )
    payload = rng.integers(0, 1 << 32, size=payload_words, dtype=np.uint64)
    words = [SYNC_WORD]
    words += [NOOP] * leading_noops
    words += [TYPE1_WRITE_FAR, far_encode(rr_id, module_id)]
    words += [TYPE1_WRITE_CMD, WCFG_CMD]
    if crc:
        words += [TYPE1_WRITE_CRC, payload_crc(payload)]
    words += [TYPE2_WRITE_FDRI, TYPE2_LEN_TAG | payload_words]
    words += [int(w) for w in payload]
    words += [TYPE1_WRITE_CMD, DESYNC_CMD]
    return words


def simb_header_words(leading_noops: int = 1, crc: bool = False) -> int:
    """Number of words before the payload begins."""
    return 1 + leading_noops + 2 + 2 + 2 + (2 if crc else 0)


def build_capture_simb(rr_id: int, read_words: int) -> List[int]:
    """Command stream that captures and reads back a region's state.

    GCAPTURE snapshots the active module's flip-flop state into the
    (simulated) configuration memory, and the Type-2 FDRO read asks the
    ICAP to stream ``read_words`` of it out through its read port.  The
    controller then drains the read port via its readback DMA path.
    """
    if read_words < 1:
        raise ValueError("must read at least one state word")
    return [
        SYNC_WORD,
        NOOP,
        TYPE1_WRITE_FAR,
        far_encode(rr_id, 0),  # module field unused: captures the active one
        TYPE1_WRITE_CMD,
        GCAPTURE_CMD,
        TYPE2_READ_FDRO,
        TYPE2_LEN_TAG | read_words,
        TYPE1_WRITE_CMD,
        DESYNC_CMD,
    ]


def build_restore_simb(
    rr_id: int, module_id: int, state_words: Iterable[int], crc: bool = False
) -> List[int]:
    """Bitstream that configures ``module_id`` *with* saved state.

    The frame-data payload carries the previously read-back state
    instead of random filler, and a GRESTORE command after the payload
    transfers it into the module's flip-flops — so the module resumes
    where it left off instead of powering up dirty.
    """
    state = [int(w) & 0xFFFF_FFFF for w in state_words]
    if not state:
        raise ValueError("restore needs at least one state word")
    crc_packet = [TYPE1_WRITE_CRC, payload_crc(state)] if crc else []
    return (
        [
            SYNC_WORD,
            NOOP,
            TYPE1_WRITE_FAR,
            far_encode(rr_id, module_id),
            TYPE1_WRITE_CMD,
            WCFG_CMD,
        ]
        + crc_packet
        + [
            TYPE2_WRITE_FDRI,
            TYPE2_LEN_TAG | len(state),
        ]
        + state
        + [TYPE1_WRITE_CMD, GRESTORE_CMD, TYPE1_WRITE_CMD, DESYNC_CMD]
    )


@dataclass(frozen=True)
class SimBEvent:
    """One semantic action decoded from the SimB stream.

    ``kind`` is one of ``sync``, ``noop``, ``far``, ``wcfg``, ``crc``,
    ``fdri``, ``payload_start``, ``payload``, ``payload_end``,
    ``desync``, ``gcapture``, ``grestore``, ``fdro`` (state-saving
    extension).
    ``value`` carries the raw word for ``payload`` events so restore
    streams can deliver saved state.
    """

    kind: str
    word_index: int
    rr_id: Optional[int] = None
    module_id: Optional[int] = None
    size: Optional[int] = None
    value: Optional[int] = None


class SimBParser:
    """The ICAP-side SimB decoder — a word-at-a-time FSM.

    Feed words with :meth:`push`; each call returns the list of
    :class:`SimBEvent` actions that word triggered.  The FSM mirrors the
    configuration logic of the target device closely enough to catch
    framing bugs in the bitstream-transfer datapath: payload overruns
    and truncated streams raise :class:`SimBError`.
    """

    IDLE = "idle"
    SYNCED = "synced"
    AWAIT_FAR = "await_far"
    AWAIT_CMD = "await_cmd"
    AWAIT_CRC = "await_crc"
    AWAIT_LEN = "await_len"
    AWAIT_RDLEN = "await_rdlen"
    PAYLOAD = "payload"

    def __init__(self) -> None:
        self.state = self.IDLE
        self.words_seen = 0
        self.rr_id: Optional[int] = None
        self.module_id: Optional[int] = None
        self.payload_expected = 0
        self.payload_seen = 0
        self.wcfg_seen = False
        #: announced payload CRC32 (None when the SimB carries no CRC
        #: packet — legacy streams stay accepted)
        self.expected_crc: Optional[int] = None
        self._running_crc = 0
        self.crc_failures = 0
        self.completed_loads: List[Tuple[int, int]] = []

    def push(self, word: int) -> List[SimBEvent]:
        word &= 0xFFFF_FFFF
        i = self.words_seen
        self.words_seen += 1
        events: List[SimBEvent] = []
        st = self.state

        if st == self.IDLE:
            if word == SYNC_WORD:
                self.state = self.SYNCED
                events.append(SimBEvent("sync", i))
            # anything else before SYNC is ignored (dummy/pad words)
            return events

        if st == self.PAYLOAD:
            self.payload_seen += 1
            if self.payload_seen == 1:
                events.append(
                    SimBEvent(
                        "payload_start", i, self.rr_id, self.module_id,
                        self.payload_expected,
                    )
                )
            if self.expected_crc is not None:
                self._running_crc = zlib.crc32(
                    word.to_bytes(4, "big"), self._running_crc
                )
            events.append(SimBEvent("payload", i, value=word))
            if self.payload_seen == self.payload_expected:
                if (
                    self.expected_crc is not None
                    and self._running_crc != self.expected_crc
                ):
                    # raise BEFORE emitting payload_end: a corrupted
                    # payload must never commit a module swap
                    self.crc_failures += 1
                    raise SimBError(
                        f"FDRI payload CRC mismatch at index {i}: "
                        f"expected {self.expected_crc:#010x}, "
                        f"got {self._running_crc:#010x}"
                    )
                self.expected_crc = None
                events.append(
                    SimBEvent(
                        "payload_end", i, self.rr_id, self.module_id,
                        self.payload_expected,
                    )
                )
                self.completed_loads.append((self.rr_id, self.module_id))
                self.state = self.SYNCED
            return events

        # SYNCED / AWAIT_* command decoding
        if st == self.SYNCED:
            if word == NOOP:
                events.append(SimBEvent("noop", i))
            elif word == TYPE1_WRITE_FAR:
                self.state = self.AWAIT_FAR
            elif word == TYPE1_WRITE_CMD:
                self.state = self.AWAIT_CMD
            elif word == TYPE1_WRITE_CRC:
                self.state = self.AWAIT_CRC
            elif word == TYPE2_WRITE_FDRI:
                self.state = self.AWAIT_LEN
            elif word == TYPE2_READ_FDRO:
                self.state = self.AWAIT_RDLEN
            else:
                raise SimBError(
                    f"unexpected word {word:#010x} at index {i} in state "
                    f"{st!r}"
                )
            return events

        if st == self.AWAIT_FAR:
            self.rr_id, self.module_id = far_decode(word)
            self.state = self.SYNCED
            events.append(SimBEvent("far", i, self.rr_id, self.module_id))
            return events

        if st == self.AWAIT_CRC:
            self.expected_crc = word
            self._running_crc = 0
            self.state = self.SYNCED
            events.append(SimBEvent("crc", i, value=word))
            return events

        if st == self.AWAIT_CMD:
            if word == WCFG_CMD:
                self.wcfg_seen = True
                self.state = self.SYNCED
                events.append(SimBEvent("wcfg", i))
            elif word == DESYNC_CMD:
                self.state = self.IDLE
                events.append(SimBEvent("desync", i))
                self._reset_load_state()
            elif word == GCAPTURE_CMD:
                if self.rr_id is None:
                    raise SimBError(f"GCAPTURE before FAR at index {i}")
                self.state = self.SYNCED
                events.append(SimBEvent("gcapture", i, self.rr_id))
            elif word == GRESTORE_CMD:
                if self.rr_id is None:
                    raise SimBError(f"GRESTORE before FAR at index {i}")
                self.state = self.SYNCED
                events.append(
                    SimBEvent("grestore", i, self.rr_id, self.module_id)
                )
            else:
                raise SimBError(f"unknown CMD value {word:#010x} at index {i}")
            return events

        if st == self.AWAIT_RDLEN:
            if word & ~TYPE2_LEN_MASK != TYPE2_LEN_TAG:
                raise SimBError(
                    f"bad Type-2 read length word {word:#010x} at index {i}"
                )
            if self.rr_id is None:
                raise SimBError("FDRO read before FAR was set")
            self.state = self.SYNCED
            events.append(
                SimBEvent("fdro", i, self.rr_id, size=word & TYPE2_LEN_MASK)
            )
            return events

        if st == self.AWAIT_LEN:
            if word & ~TYPE2_LEN_MASK != TYPE2_LEN_TAG:
                raise SimBError(
                    f"bad Type-2 length word {word:#010x} at index {i}"
                )
            if self.rr_id is None:
                raise SimBError("FDRI write before FAR was set")
            if not self.wcfg_seen:
                raise SimBError("FDRI write before WCFG command")
            self.payload_expected = word & TYPE2_LEN_MASK
            self.payload_seen = 0
            self.state = self.PAYLOAD
            events.append(
                SimBEvent("fdri", i, self.rr_id, self.module_id,
                          self.payload_expected)
            )
            return events

        raise AssertionError(f"unreachable parser state {st!r}")

    def _reset_load_state(self) -> None:
        self.rr_id = None
        self.module_id = None
        self.payload_expected = 0
        self.payload_seen = 0
        self.wcfg_seen = False
        self.expected_crc = None
        self._running_crc = 0

    @property
    def mid_reconfiguration(self) -> bool:
        """True between SYNC and DESYNC (the "DURING" phase)."""
        return self.state != self.IDLE


def decode_simb(words: Iterable[int]) -> List[SimBEvent]:
    """Decode a complete SimB into its event list (offline helper)."""
    parser = SimBParser()
    events: List[SimBEvent] = []
    for w in words:
        events.extend(parser.push(w))
    if parser.mid_reconfiguration:
        raise SimBError("SimB ended without DESYNC")
    return events
