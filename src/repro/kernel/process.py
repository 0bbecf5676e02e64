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

from typing import Generator

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
        "finished",
        "result",
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
        self.finished = False
        self.result = None
        # Every resume path (the interpreter's delta loop and the
        # compiled driver) calls this cached bound method, saving the
        # ``_gen.send`` hop.
        self._send = gen.send

    def kill(self) -> None:
        """Terminate the process without resuming it again.

        The generator is closed, so its ``finally`` blocks run now.
        """
        if self.finished:
            return
        self.finished = True
        self._gen.close()

    def _handle_nontrigger_yield(self, sim, yielded) -> None:
        """Slow path of a resume: the process yielded a non-trigger.

        That ends the process with a :class:`TypeError`, reported as a
        :class:`ProcessError` from the run.
        """
        self.finished = True
        exc = TypeError(
            f"process {self.name!r} yielded {yielded!r}; processes must "
            f"yield Trigger instances (Timer, RisingEdge, ...)"
        )
        sim._report_process_error(ProcessError(self, exc))

    def __repr__(self) -> str:
        state = "finished" if self.finished else "alive"
        return f"Process({self.name!r}, {state})"
