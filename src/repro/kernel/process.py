"""Processes — concurrent behavioural threads of the simulated design.

A process is a Python generator that yields :class:`~repro.kernel.events.Trigger`
objects.  The scheduler resumes the generator when the trigger fires,
sending the fired trigger back into the generator (useful with
:class:`~repro.kernel.events.First`).

Processes correspond to HDL ``always``/``initial`` blocks and to
testbench threads.  Each process records how many times it has been
resumed and (in profiling mode) how much wall-clock time its body has
consumed — the raw data behind the paper's Table II and simulation-
overhead measurements.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from .events import Join, Trigger

__all__ = ["Process", "ProcessError"]


class ProcessError(RuntimeError):
    """Raised when a process body raises; carries the originating process."""

    def __init__(self, process: "Process", original: BaseException):
        super().__init__(f"process {process.name!r} raised {original!r}")
        self.process = process
        self.original = original


class Process:
    """A schedulable coroutine within the simulation."""

    __slots__ = (
        "name",
        "owner",
        "_gen",
        "_sim",
        "finished",
        "result",
        "exception",
        "_joiners",
        "resume_count",
        "elapsed_ns",
        "_waiting_on",
        "_killed",
        "_send",
    )

    def __init__(self, gen: Generator, name: str = "proc", owner=None):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process body must be a generator (did you forget to call "
                f"the generator function?): got {gen!r}"
            )
        self.name = name
        self.owner = owner
        self._gen = gen
        self._sim = None  # set by Simulator.fork
        self.finished = False
        self.result = None
        self.exception: Optional[BaseException] = None
        self._joiners: List[Join] = []
        self.resume_count = 0
        self.elapsed_ns = 0
        self._waiting_on: Optional[Trigger] = None
        self._killed = False
        # Every resume path (the interpreter's delta loop and the
        # compiled driver) calls this cached bound method, saving the
        # ``_gen.send`` hop.
        self._send = gen.send

    def kill(self) -> None:
        """Terminate the process without resuming it again.

        Joiners are released (the process *is* finished), so a parent
        waiting on a killed child does not hang.
        """
        if self.finished:
            return
        self._killed = True
        self.finished = True
        self._gen.close()
        if self._sim is not None:
            self._finish(self._sim)

    def _handle_nontrigger_yield(self, sim, yielded) -> None:
        """Slow path of a resume: a joined process or an invalid yield."""
        if isinstance(yielded, Process):
            join = Join(yielded)
            self._waiting_on = join
            join._prime(sim, self)
            return
        self.finished = True
        exc = TypeError(
            f"process {self.name!r} yielded {yielded!r}; processes must "
            f"yield Trigger instances (Timer, RisingEdge, ...)"
        )
        self.exception = exc
        self._finish(sim)
        sim._report_process_error(ProcessError(self, exc))

    def _finish(self, sim) -> None:
        joiners, self._joiners = self._joiners, []
        for join in joiners:
            sim._schedule_delta_trigger(join)

    def __repr__(self) -> str:
        state = "finished" if self.finished else f"waiting on {self._waiting_on!r}"
        return f"Process({self.name!r}, {state})"
