"""Three-valued (0/1/X), delta-cycle, event-driven RTL simulation kernel.

The ModelSim substitute underlying the whole reproduction: everything
else in :mod:`repro` — buses, engines, the reconfiguration machinery,
the ISS — is built from this kernel's :class:`Module`/:class:`Signal`/
process primitives.
"""

from .clock import Clock, MHz
from .events import (
    MS,
    NS,
    PS,
    US,
    Edge,
    Event,
    First,
    RisingEdge,
    Timer,
    Trigger,
)
from .logic import LV, LogicVector, bit, xbits
from .mailbox import Mailbox, MailboxEmpty
from .module import ElaborationError, Module
from .process import Process, ProcessError
from .signal import Signal, SignalWriteError
from .simulator import DeltaOverflowError, SimStats, SimulationError, Simulator
from .vcd import VcdWriter

__all__ = [
    "Clock",
    "MHz",
    "MS",
    "NS",
    "PS",
    "US",
    "Edge",
    "Event",
    "First",
    "RisingEdge",
    "Timer",
    "Trigger",
    "LV",
    "LogicVector",
    "bit",
    "xbits",
    "Mailbox",
    "MailboxEmpty",
    "ElaborationError",
    "Module",
    "Process",
    "ProcessError",
    "Signal",
    "SignalWriteError",
    "DeltaOverflowError",
    "SimStats",
    "SimulationError",
    "Simulator",
    "VcdWriter",
]
