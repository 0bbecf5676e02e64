"""Module hierarchy — structural composition of the simulated design.

A :class:`Module` mirrors an HDL module instance: it owns signals,
behavioural processes and child modules, and has a hierarchical path
name used by waveform tracing and by the activity-accounting reports
(Table II attributes simulation cost to the module that caused it).

Subclasses declare structure in ``__init__`` using :meth:`signal` and
:meth:`process`, and create child instances with ``parent=self``; the
simulator then *elaborates* the hierarchy once, binding signals and
starting processes.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Union

from .logic import LogicVector
from .process import Process
from .signal import Signal

__all__ = ["Module", "ElaborationError"]


class ElaborationError(RuntimeError):
    pass


class Module:
    """Base class for all structural components of the design."""

    def __init__(self, name: str, parent: Optional["Module"] = None):
        self.name = name
        self.parent = parent
        self.children: List[Module] = []
        self.signals: List[Signal] = []
        self._process_factories: List[tuple] = []
        self.processes: List[Process] = []
        self.sim = None
        if parent is not None:
            parent.children.append(self)

    # ------------------------------------------------------------------
    # Structure declaration
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        if self.parent is None:
            return self.name
        return f"{self.parent.path}.{self.name}"

    def signal(
        self,
        name: str,
        width: int = 1,
        init: Union[LogicVector, int, None] = 0,
    ) -> Signal:
        """Declare a signal owned by this module."""
        sig = Signal(f"{name}", width=width, init=init, owner=self)
        self.signals.append(sig)
        if self.sim is not None:
            self.sim.register_signal(sig)
        return sig

    def process(self, factory: Callable[[], Generator], name: Optional[str] = None):
        """Register a behavioural process (a generator *function*).

        The factory is invoked at elaboration; the resulting generator
        becomes a scheduled process owned by this module.
        """
        self._process_factories.append((factory, name or factory.__name__))
        if self.sim is not None:
            proc = self.sim.fork(
                factory(), name=f"{self.path}.{name or factory.__name__}", owner=self
            )
            self.processes.append(proc)
            return proc
        return None

    # ------------------------------------------------------------------
    # Elaboration
    # ------------------------------------------------------------------
    def _elaborate(self, sim) -> None:
        if self.sim is sim:
            return
        if self.sim is not None:
            raise ElaborationError(f"{self.path} already elaborated")
        self.sim = sim
        for sig in self.signals:
            sim.register_signal(sig)
        for factory, name in self._process_factories:
            proc = sim.fork(factory(), name=f"{self.path}.{name}", owner=self)
            self.processes.append(proc)
        self._process_factories = []
        for ch in self.children:
            ch._elaborate(sim)

    def warn(self, message: str) -> None:
        """Emit a timestamped warning on the simulator's trace channel."""
        if self.sim is not None:
            self.sim.warn(f"{self.path}: {message}")

    @property
    def tracer(self):
        """The simulator's structured tracer, or None when tracing is off.

        Instrumentation sites use ``tr = self.tracer`` followed by an
        ``if tr is not None`` guard so a tracing-disabled simulation
        pays one attribute read at lifecycle points only.
        """
        sim = self.sim
        return sim.tracer if sim is not None else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def iter_tree(self):
        """Yield this module and all descendants, depth-first."""
        yield self
        for ch in self.children:
            yield from ch.iter_tree()

    def activity(self) -> Dict[str, int]:
        """Kernel events attributed to this subtree (resumes + changes)."""
        if self.sim is None:
            return {"resumes": 0, "changes": 0, "events": 0}
        stats = self.sim.stats
        resumes = changes = 0
        for mod in self.iter_tree():
            resumes += stats.resumes_by_owner.get(mod, 0)
            changes += stats.changes_by_owner.get(mod, 0)
        return {"resumes": resumes, "changes": changes, "events": resumes + changes}

    def elapsed_ns(self) -> int:
        """Profiled wall-clock time attributed to this subtree."""
        if self.sim is None:
            return 0
        stats = self.sim.stats
        return sum(
            stats.elapsed_ns_by_owner.get(mod, 0) for mod in self.iter_tree()
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r})"
