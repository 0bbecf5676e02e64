"""VCD (Value Change Dump) waveform writer.

Simulation-based debugging of the reconfiguration process relies on
inspecting waveforms around the reconfiguration window (the paper's
"before, during and after" requirement).  The kernel can dump any subset
of signals to an IEEE-1364 VCD file viewable in GTKWave; ``x`` bits
are emitted faithfully, so the error-injection window is visible in the
trace.
"""

from __future__ import annotations

import io
from typing import List, Optional, TextIO

from .module import Module
from .signal import Signal

__all__ = ["VcdWriter"]

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _vcd_id(index: int) -> str:
    """Compact identifier code for the ``index``-th traced signal."""
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(chars)


class VcdWriter:
    """Streams signal changes to a VCD file.

    Usage::

        writer = VcdWriter(open("dump.vcd", "w"))
        writer.trace_module(top)          # or writer.trace(sig, ...)
        sim.attach_vcd(writer)
        sim.run_for(...)
        sim.close()
    """

    def __init__(self, stream: TextIO):
        self._stream = stream
        self._signals: List[Signal] = []
        self._scopes: List[tuple] = []  # (scope path tuple, signal)
        self._header_written = False
        self._last_time: Optional[int] = None
        self._sim = None
        self.changes_recorded = 0

    # ------------------------------------------------------------------
    # Configuration (before attach/run)
    # ------------------------------------------------------------------
    def trace(self, *signals: Signal, scope: str = "top") -> None:
        for sig in signals:
            self._add(sig, tuple(scope.split(".")))

    def trace_module(self, module: Module) -> None:
        """Trace every signal in a module subtree, preserving hierarchy."""
        for mod in module.iter_tree():
            scope = tuple(mod.path.split("."))
            for sig in mod.signals:
                self._add(sig, scope)

    def _add(self, sig: Signal, scope: tuple) -> None:
        if sig._vcd_id is not None:
            return
        sig._vcd_id = _vcd_id(len(self._signals))
        self._signals.append(sig)
        self._scopes.append((scope, sig))

    # ------------------------------------------------------------------
    # Kernel interface
    # ------------------------------------------------------------------
    def _attach(self, sim) -> None:
        self._sim = sim
        self._write_header()

    def _write_header(self) -> None:
        w = self._stream.write
        w("$version repro.kernel VCD writer $end\n")
        w("$timescale 1ps $end\n")  # simulated time is in picoseconds
        # Group by scope, emitting nested $scope sections.
        current: tuple = ()
        for scope, sig in sorted(self._scopes, key=lambda t: t[0]):
            while current and current != scope[: len(current)]:
                w("$upscope $end\n")
                current = current[:-1]
            for part in scope[len(current):]:
                w(f"$scope module {part} $end\n")
                current = current + (part,)
            kind = "wire"
            w(f"$var {kind} {sig.width} {sig._vcd_id} {sig.name} $end\n")
        while current:
            w("$upscope $end\n")
            current = current[:-1]
        w("$enddefinitions $end\n")
        w("$dumpvars\n")
        for sig in self._signals:
            w(self._format(sig))
        w("$end\n")
        self._header_written = True
        self._last_time = None

    @staticmethod
    def _format(sig: Signal) -> str:
        v = sig.value
        if v.__class__ is int:
            bits = format(v, f"0{sig.width}b")
        else:
            bits = v.to_string()
        if sig.width == 1:
            return f"{bits}{sig._vcd_id}\n"
        return f"b{bits} {sig._vcd_id}\n"

    def _record(self, time: int, sig: Signal) -> None:
        if not self._header_written:
            return
        if time != self._last_time:
            self._stream.write(f"#{time}\n")
            self._last_time = time
        self._stream.write(self._format(sig))
        self.changes_recorded += 1

    def close(self) -> None:
        if self._sim is not None:
            self._stream.write(f"#{self._sim.time}\n")
        self._stream.flush()
        if not isinstance(self._stream, io.StringIO):
            self._stream.close()
