"""Pseudo-label selection for unlabeled unknown objects.

High-objectness proposals that survive suppression and do not cover any
known annotation are promoted to pseudo ground truth: training labels the
selected rows unknown, so the classifier sees targets for objects no
annotator touched. The pipeline order is fixed: suppression first, then the
known-overlap filter, then the objectness top-k, then the objectness floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import pairwise_iou
from .metrics import suppress


@dataclass(frozen=True)
class UlpConfig:
    """Selection hyperparameters.

    ``nms_threshold``: IoU above which overlapping proposals suppress each
    other. ``top_k``: candidate cap after filtering. ``delta``: objectness
    floor; only proposals strictly above it survive.
    ``known_overlap_threshold``: proposals reaching this IoU with any known
    annotation are discarded as already-explained.
    """

    nms_threshold: float = 0.3
    top_k: int = 5
    delta: float = 0.3
    known_overlap_threshold: float = 0.5

    def __post_init__(self) -> None:
        for name in ("nms_threshold", "delta", "known_overlap_threshold"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


def select_pseudo_labels(
    boxes: np.ndarray, objectness: np.ndarray, known_boxes: np.ndarray, config: UlpConfig = UlpConfig()
) -> np.ndarray:
    """The rows of one image's proposals to promote to pseudo ground truth.

    ``boxes`` and ``objectness`` are the proposals' (n, 4) ``Box.array`` rows
    and their (n,) objectness, and ``known_boxes`` the (m, 4) rows of the
    image's known annotations. Returns at most ``config.top_k`` int row
    indices, by descending objectness, ties by ascending row.
    """
    kept = suppress(np.zeros(len(boxes), dtype=int), objectness, boxes, config.nms_threshold)
    overlap = pairwise_iou(boxes[kept], known_boxes)
    # survivors come in rank order, so the top-k are the first clear ones
    top = kept[(overlap < config.known_overlap_threshold).all(axis=1)][: config.top_k]
    return top[objectness[top] > config.delta]
