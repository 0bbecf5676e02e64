"""Synthetic video generation with known ground-truth motion.

The original AutoVision demonstrator processes real road video; no such
footage ships with this reproduction, so scenes are synthesized: a
textured background with a set of moving rectangular "vehicles", each
with a constant integer per-frame velocity.  Because the motion is known
exactly, the motion vectors computed by the Matching Engine can be
checked mechanically — something the paper's testbench could only do by
visual inspection.

Determinism: every sequence is seeded, so failures reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["SceneConfig", "FrameSequence"]


@dataclass(frozen=True)
class MovingObject:
    """A textured rectangle moving with constant velocity."""

    x: int
    y: int
    w: int
    h: int
    vx: int
    vy: int
    shade: int


@dataclass
class SceneConfig:
    """Parameters of a synthetic road scene."""

    width: int = 160
    height: int = 120
    n_objects: int = 3
    max_speed: int = 2
    seed: int = 2013  # the paper's year
    texture_contrast: int = 24

    def __post_init__(self) -> None:
        if self.width % 4:
            raise ValueError("frame width must be a multiple of 4 (word packing)")
        if self.width < 16 or self.height < 16:
            raise ValueError("frames must be at least 16x16")
        if self.max_speed < 0:
            raise ValueError("max_speed must be >= 0")


class FrameSequence:
    """Deterministic generator of 8-bit grayscale frames.

    ``frame(t)`` is pure: calling it twice with the same index returns
    identical data, and ``true_motion(t)`` returns the per-object ground
    truth displacement between frames ``t`` and ``t+1``.  Each call
    renders a fresh array the caller may mutate.
    """

    def __init__(self, config: SceneConfig | None = None):
        self.config = config or SceneConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        # Background: low-contrast texture so the census transform has
        # features everywhere (untextured regions match ambiguously).
        self.background = (
            128
            + rng.integers(
                -cfg.texture_contrast, cfg.texture_contrast + 1,
                size=(cfg.height, cfg.width),
            )
        ).astype(np.uint8)
        self.objects: List[MovingObject] = []
        for i in range(cfg.n_objects):
            w = int(rng.integers(cfg.width // 10, cfg.width // 4))
            h = int(rng.integers(cfg.height // 10, cfg.height // 4))
            self.objects.append(
                MovingObject(
                    x=int(rng.integers(0, cfg.width - w)),
                    y=int(rng.integers(0, cfg.height - h)),
                    w=w,
                    h=h,
                    vx=int(rng.integers(-cfg.max_speed, cfg.max_speed + 1)),
                    vy=int(rng.integers(-cfg.max_speed, cfg.max_speed + 1)),
                    shade=int(rng.integers(40, 216)),
                )
            )
        self._obj_textures = [
            (
                obj.shade
                + rng.integers(
                    -cfg.texture_contrast, cfg.texture_contrast + 1,
                    size=(obj.h, obj.w),
                )
            ).clip(0, 255).astype(np.uint8)
            for obj in self.objects
        ]

    def frame(self, t: int) -> np.ndarray:
        """The ``t``-th frame as a new (H, W) uint8 array."""
        cfg = self.config
        img = self.background.copy()
        for obj, tex in zip(self.objects, self._obj_textures):
            x = (obj.x + obj.vx * t) % cfg.width
            y = (obj.y + obj.vy * t) % cfg.height
            # paste with wraparound so objects never leave the scene
            for dy in range(obj.h):
                yy = (y + dy) % cfg.height
                xs = (x + np.arange(obj.w)) % cfg.width
                img[yy, xs] = tex[dy]
        return img

    def true_motion(self, t: int) -> List[Tuple[int, int]]:
        """Ground-truth (dx, dy) of each object between frames t and t+1."""
        return [(obj.vx, obj.vy) for obj in self.objects]

    def object_mask(self, t: int, margin: int = 0) -> np.ndarray:
        """Boolean mask of pixels covered by objects in frame ``t``.

        ``margin`` erodes the mask border, excluding pixels whose census
        window or match search straddles an object edge.
        """
        cfg = self.config
        mask = np.zeros((cfg.height, cfg.width), dtype=bool)
        for obj in self.objects:
            x = (obj.x + obj.vx * t) % cfg.width
            y = (obj.y + obj.vy * t) % cfg.height
            for dy in range(margin, obj.h - margin):
                yy = (y + dy) % cfg.height
                xs = (x + np.arange(margin, obj.w - margin)) % cfg.width
                mask[yy, xs] = True
        return mask
