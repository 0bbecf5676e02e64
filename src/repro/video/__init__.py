"""Video substrate: synthetic scenes, golden optical-flow models, VIPs.

The paper's simulation environment replaces the camera and VGA display
with SystemC Verification IPs that stream video frames from/to disk via
cycle-accurate PLB transactions.  This package provides the equivalent:

* :mod:`repro.video.frames` — deterministic synthetic road scenes with
  *known* object motion (ground truth the scoreboards can check),
* :mod:`repro.video.census` / :mod:`repro.video.matching` — NumPy golden
  models of the Census transform and census matching (the Optical Flow
  algorithm the CIE/ME engines accelerate),
* :mod:`repro.video.formats` — pixel/word packing shared by VIPs and
  engines,
* :mod:`repro.video.vip` — VideoIn/VideoOut PLB-master verification IPs.
"""

from .census import census_transform, hamming_distance
from .formats import (
    pack_pixels,
    pack_vector_bytes,
    unpack_pixels,
    unpack_vector_bytes,
    words_per_row,
)
from .frames import FrameSequence, SceneConfig
from .matching import match_features, motion_field_error
from .vip import VideoInVIP, VideoOutVIP

__all__ = [
    "census_transform",
    "hamming_distance",
    "pack_pixels",
    "pack_vector_bytes",
    "unpack_pixels",
    "unpack_vector_bytes",
    "words_per_row",
    "FrameSequence",
    "SceneConfig",
    "match_features",
    "motion_field_error",
    "VideoInVIP",
    "VideoOutVIP",
]
