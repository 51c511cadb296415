"""Shared value types for the open-world detection pipeline.

Boxes are axis-aligned and stored in center/width/height form. Class labels
are a tagged union of three variants: a known class id, an unknown class id,
or background. Known ids occupy ``[0, known_count)`` and unknown ids occupy
``[known_count, known_count + unknown_slots)`` so the two ranges never
collide; background carries no integer id at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite
from typing import Optional, Sequence

import numpy as np


class LabelKind(Enum):
    KNOWN = "known"
    UNKNOWN = "unknown"
    BACKGROUND = "background"


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: finite center coordinates plus positive, finite
    width and height."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (isfinite(self.cx) and isfinite(self.cy) and isfinite(self.w) and isfinite(self.h)):
            raise ValueError(f"box values must be finite, got {self}")
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    @staticmethod
    def array(boxes: Sequence[Box]) -> np.ndarray:
        """The ``(cx, cy, w, h)`` rows of ``boxes`` as an (n, 4) float array."""
        # a list per column converts faster than a tuple per box
        columns = [[b.cx for b in boxes], [b.cy for b in boxes], [b.w for b in boxes], [b.h for b in boxes]]
        return np.array(columns, dtype=float).T


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    inter_w = min(a.cx + a.w / 2.0, b.cx + b.w / 2.0) - max(a.cx - a.w / 2.0, b.cx - b.w / 2.0)
    inter_h = min(a.cy + a.h / 2.0, b.cy + b.h / 2.0) - max(a.cy - a.h / 2.0, b.cy - b.h / 2.0)
    if inter_w <= 0 or inter_h <= 0:
        return 0.0
    inter = inter_w * inter_h
    union = a.w * a.h + b.w * b.h - inter
    # corner round-trips can leave the ratio a few ulp above 1
    return min(inter / union, 1.0)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every box in ``a`` against every box in ``b``: ``Box.array``
    rows shaped (n, 4) and (m, 4) give the (n, m) matrix, and leading axes
    broadcast, so (..., n, 4) and (..., m, 4) give (..., n, m). Each entry
    takes ``iou``'s float steps in ``iou``'s order, so it equals ``iou`` of
    its two boxes bit for bit and no threshold comparison can tell them apart.
    """
    a, b = a[..., :, None, :], b[..., None, :, :]
    half_a, half_b = a[..., 2:] / 2.0, b[..., 2:] / 2.0
    sides = np.minimum(a[..., :2] + half_a, b[..., :2] + half_b) - np.maximum(a[..., :2] - half_a, b[..., :2] - half_b)
    inter = np.where((sides > 0).all(axis=-1), sides[..., 0] * sides[..., 1], 0.0)
    union = (a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3]) - inter
    return np.minimum(inter / union, 1.0)


@dataclass(frozen=True)
class ClassLabel:
    """Tagged class label: known id, unknown id, or background.

    Use the factory methods rather than the constructor; ``class_id`` is
    required for known/unknown labels and must be absent for background.
    """

    kind: LabelKind
    class_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is LabelKind.BACKGROUND:
            if self.class_id is not None:
                raise ValueError("background label carries no class id")
        else:
            if self.class_id is None or self.class_id < 0:
                raise ValueError(f"{self.kind.value} label needs a non-negative class id")

    @classmethod
    def known(cls, class_id: int) -> "ClassLabel":
        return cls(LabelKind.KNOWN, class_id)

    @classmethod
    def unknown(cls, class_id: int) -> "ClassLabel":
        return cls(LabelKind.UNKNOWN, class_id)

    @classmethod
    def background(cls) -> "ClassLabel":
        return cls(LabelKind.BACKGROUND)

    @property
    def is_known(self) -> bool:
        return self.kind is LabelKind.KNOWN

    @property
    def is_unknown(self) -> bool:
        return self.kind is LabelKind.UNKNOWN

    @property
    def is_background(self) -> bool:
        return self.kind is LabelKind.BACKGROUND


def label_for_class_id(class_id: int, known_count: int) -> ClassLabel:
    """Map a raw integer class id onto the known/unknown split at ``known_count``."""
    if class_id < 0:
        raise ValueError(f"class id must be non-negative, got {class_id}")
    if class_id < known_count:
        return ClassLabel.known(class_id)
    return ClassLabel.unknown(class_id)


@dataclass(frozen=True)
class GroundTruthObject:
    """One annotated object."""

    image_id: int
    label: ClassLabel
    box: Box

    def __post_init__(self) -> None:
        if self.label.is_background:
            raise ValueError("ground truth cannot be labeled background")


@dataclass(frozen=True)
class Detection:
    """One scored detection emitted by a model."""

    image_id: int
    label: ClassLabel
    box: Box
    score: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"detection score must lie in [0, 1], got {self.score}")
        if self.label.is_background:
            raise ValueError("detections never carry the background label")
