"""Pseudo-label selection for unlabeled unknown objects.

High-objectness proposals that survive suppression and do not cover any
known annotation are promoted to unknown-labeled pseudo ground truth, so the
classifier sees training targets for objects no annotator touched. The
pipeline order is fixed: suppression first, then the known-overlap filter,
then the objectness top-k, then the objectness floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Box, ClassLabel, GroundTruthObject, Proposal, pairwise_iou
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
    proposals: Sequence[Proposal],
    known_gts: Sequence[GroundTruthObject],
    config: UlpConfig = UlpConfig(),
    unknown_id: int = 0,
) -> list[GroundTruthObject]:
    """Promote unexplained high-objectness proposals to pseudo ground truth.

    All proposals must come from one image. ``unknown_id`` is the placeholder
    unknown class id stamped on every selected proposal (callers typically
    pass the first unknown slot). Returns at most ``config.top_k`` objects;
    their unknown label is what marks them as pseudo ground truth.
    """
    if not proposals:
        return []
    image_ids = {p.image_id for p in proposals} | {g.image_id for g in known_gts}
    if len(image_ids) > 1:
        raise ValueError(f"pseudo-label selection is per-image, got image ids {sorted(image_ids)}")
    for gt in known_gts:
        if not gt.label.is_known:
            raise ValueError("known_gts must be known-labeled")

    boxes = Box.array([p.box for p in proposals])
    objectness = np.array([p.objectness for p in proposals])
    kept = suppress(np.zeros(len(proposals), dtype=int), objectness, boxes, config.nms_threshold)
    overlap = pairwise_iou(boxes[kept], Box.array([g.box for g in known_gts]))
    # survivors come in rank order, so the top-k are the first clear ones
    top = kept[(overlap < config.known_overlap_threshold).all(axis=1)][: config.top_k]
    selected = top[objectness[top] > config.delta]
    return [
        GroundTruthObject(
            image_id=proposals[i].image_id,
            label=ClassLabel.unknown(unknown_id),
            box=proposals[i].box,
        )
        for i in selected
    ]
