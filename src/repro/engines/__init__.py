"""The reconfigurable video processing engines of the demonstrator.

Two engines time-share one reconfigurable region (RR):

* :class:`~repro.engines.cie.CensusImageEngine` (CIE) — converts a
  video frame into an 8-bit census feature image,
* :class:`~repro.engines.me.MatchingEngine` (ME) — compares two
  consecutive feature images and emits motion vectors.

Their parameter registers live *outside* the engines, in the static
region (:class:`~repro.engines.registers.EngineRegs`), exactly as the
paper's re-integrated design moved them out to keep the DCR daisy chain
intact during reconfiguration.
"""

from .base import EngineParams, VideoEngine
from .cie import CensusImageEngine
from .me import MatchingEngine
from .registers import EngineRegs

__all__ = [
    "EngineParams",
    "VideoEngine",
    "CensusImageEngine",
    "MatchingEngine",
    "EngineRegs",
]
