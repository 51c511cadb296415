"""Detection metrics and the open-world evaluation protocol.

Matching convention used throughout: detections are processed in descending
score order (ties broken by ascending insertion index) and each detection
greedily claims the highest-IoU still-unmatched ground-truth object of its
class in its image, the lowest index among equal IoUs, provided the IoU
reaches the threshold and is above 0. Every ground truth is matched at most
once. Each matching reads its IoUs from one ``pairwise_iou`` call, each
detection against its own image's ground truth; nothing here calls the
scalar ``iou``.

Metrics:

- ``suppress``: greedy non-maximum suppression of scored boxes within
  each group, every group at once from one ``pairwise_iou`` band.
- ``average_precision``: all-point interpolated AP for one class.
- ``match_known_detections``: matches each known class once; its
  ``MatchResult`` carries the TP flags and per-class AP that ``map_known``,
  ``absolute_open_set_error`` and ``wilderness_impact`` all read.
- ``absolute_open_set_error``: unknown ground-truth objects swallowed by
  known-labeled false positives of their image.
- ``wilderness_impact``: open-set error rate relative to known predictions.
- ``hungarian_assign``: maximum-gain assignment (rectangular allowed), by
  Crouse's shortest-augmenting-path method (after Jonker and Volgenant).
  Among equal reduced costs an unassigned column wins, as in scipy's
  ``linear_sum_assignment``, so both pick the same pairs under ties.
- ``uc_map`` / ``uc_recall``: unknown-class mAP and recall, scored under the
  best matching between predicted unknown ids and true unknown classes.
- ``evaluate``: the full report.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Box, Detection, GroundTruthObject, pairwise_iou

def suppress(groups: Sequence[int], scores: Sequence[float], boxes: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Greedy non-maximum suppression of scored ``Box.array`` rows within
    each group (non-negative ints). A group ranks its boxes by descending
    score, ties by ascending index, and keeps a box iff its IoU with every
    box it already kept is <= the threshold. Returns the kept indices by
    ascending group, then rank. Groups are padded to the widest and share
    one IoU band; step k lets every group's k-th ranked box, if kept, drop
    the later boxes of its group that it overlaps.
    """
    groups, scores = np.asarray(groups, dtype=int), np.asarray(scores, dtype=float)
    order = np.lexsort((np.arange(len(groups)), -scores, groups))
    starts = np.flatnonzero(np.diff(groups[order], prepend=-1))
    sizes = np.diff(starts, append=len(order))
    # row g holds group g's indices in rank order, then -1 padding
    index = np.full((len(sizes), sizes.max(initial=0)), -1)
    index[np.repeat(np.arange(len(sizes)), sizes), np.arange(len(order)) - np.repeat(starts, sizes)] = order
    alive = index >= 0
    overlap = pairwise_iou(boxes[index], boxes[index]) > iou_threshold
    for k in range(index.shape[1]):
        alive[:, k + 1 :] &= ~(overlap[:, k, k + 1 :] & alive[:, k, None])
    return index[alive]


def _by_class(items: Sequence, known: bool) -> dict[int, list]:
    """Group known (or unknown) detections or ground truth by class id,
    keeping input order within each class."""
    groups: dict[int, list] = {}
    for item in items:
        if item.label.is_known == known:
            groups.setdefault(item.label.class_id, []).append(item)
    return groups


def _own_image_iou(items: Sequence, others: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """IoU of each of ``items`` against the ``others`` of its own image only:
    row i holds its image's ``others`` in ascending order, padded to the
    widest image with IoU -1, which no threshold admits. The second array
    holds each entry's index into ``others``, -1 in the padding."""
    by_image: dict[int, list[int]] = {}
    for j, other in enumerate(others):
        by_image.setdefault(other.image_id, []).append(j)
    width = max(map(len, by_image.values()), default=0)
    # a row of indices per image, then one of padding alone for images without others
    slots = np.array([js + [-1] * (width - len(js)) for js in [*by_image.values(), []]], dtype=int)
    number = {image_id: row for row, image_id in enumerate(by_image)}
    index = slots[[number.get(item.image_id, -1) for item in items]]
    boxes = Box.array([other.box for other in others])[index]
    overlap = pairwise_iou(Box.array([item.box for item in items])[:, None], boxes)[:, 0]
    overlap[index < 0] = -1.0
    return overlap, index


def _greedy_match(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    iou_threshold: float,
) -> tuple[list[Detection], list[bool]]:
    """Match one class's detections against one class's ground truth.

    Returns the detections in processing (descending score) order and their
    true-positive flags in the same order. Images match independently, so
    step k matches the k-th ranked detection of every image at once.
    """
    ranked = [dets[i] for i in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))]
    if not (dets and gts):
        return ranked, [False] * len(ranked)
    overlap, index = _own_image_iou(ranked, gts)
    counters = defaultdict(itertools.count)
    step = [next(counters[det.image_id]) for det in ranked]
    taken = np.zeros(len(gts), dtype=bool)
    hits = np.zeros(len(ranked), dtype=bool)
    for rows in np.split(np.argsort(step, kind="stable"), np.cumsum(np.bincount(step))[:-1]):
        free = np.where(taken[index[rows]], -1.0, overlap[rows])
        # argmax takes the first, so the lowest gt index wins IoU ties
        best = free.argmax(axis=1)
        value = free.max(axis=1)
        hit = (value >= iou_threshold) & (value > 0)
        hits[rows[hit]] = True
        taken[index[rows[hit], best[hit]]] = True
    return ranked, hits.tolist()


def _interpolated_ap(hits: Sequence[bool], npos: int) -> float:
    """All-point interpolated AP of score-ordered TP flags against ``npos``
    ground-truth objects; 0 without ground truth or detections."""
    if npos == 0 or not hits:
        return 0.0
    cum_tp = np.cumsum(hits, dtype=float)
    recall = cum_tp / npos
    # the k-th detection's precision is over the k detections so far
    precision = cum_tp / np.arange(1, len(hits) + 1)
    # monotone precision envelope over the recall curve
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def average_precision(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    iou_threshold: float = 0.5,
) -> float:
    """All-point interpolated average precision for a single class.

    ``dets`` and ``gts`` must already be restricted to the class under
    evaluation; matching happens per image. A class with no ground truth
    scores 0 by convention.
    """
    return _interpolated_ap(_greedy_match(dets, gts, iou_threshold)[1], len(gts))


@dataclass(frozen=True)
class MatchResult:
    """Matching outcome over the known classes.

    ``detections`` holds the known-labeled detections, grouped by class in
    ascending class order and score-ordered within a class, with parallel
    ``is_tp`` flags. ``ap`` maps each known class present in the ground
    truth to its average precision, in ascending class order.
    """

    detections: tuple[Detection, ...]
    is_tp: tuple[bool, ...]
    tp_known: int
    fp_known: int
    ap: dict[int, float]


def match_known_detections(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    iou_threshold: float = 0.5,
) -> MatchResult:
    """Greedy-match each known class once; pool the flags and record each
    class's AP."""
    dets_by_class = _by_class(dets, known=True)
    gts_by_class = _by_class(gts, known=True)
    detections: list[Detection] = []
    is_tp: list[bool] = []
    ap: dict[int, float] = {}
    for class_id in sorted(dets_by_class.keys() | gts_by_class.keys()):
        class_gts = gts_by_class.get(class_id, [])
        ranked, hits = _greedy_match(dets_by_class.get(class_id, []), class_gts, iou_threshold)
        detections += ranked
        is_tp += hits
        if class_gts:
            ap[class_id] = _interpolated_ap(hits, len(class_gts))
    tp = sum(is_tp)
    return MatchResult(tuple(detections), tuple(is_tp), tp, len(is_tp) - tp, ap)


def absolute_open_set_error(
    match: MatchResult,
    gts: Sequence[GroundTruthObject],
    iou_threshold: float = 0.5,
) -> int:
    """Count unknown ground-truth objects covered by a known-labeled
    detection that is not a true positive for any known object. Each unknown
    ground truth is counted at most once; covering needs the boxes to
    overlap, even at threshold 0, as matching does."""
    false_known = [det for det, hit in zip(match.detections, match.is_tp) if not hit]
    overlap, _ = _own_image_iou([gt for gt in gts if gt.label.is_unknown], false_known)
    return int(np.count_nonzero(((overlap >= iou_threshold) & (overlap > 0)).any(axis=1)))


def wilderness_impact(match: MatchResult, open_set_errors: int) -> float:
    """Open-set errors per known-labeled prediction: A-OSE / (TP + FP).

    Returns 0 when there are no known-labeled detections; callers should
    treat that case as undefined rather than perfect.
    """
    denom = match.tp_known + match.fp_known
    if denom == 0:
        return 0.0
    return open_set_errors / denom


def _shortest_augmenting_path(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost assignment of a square matrix,
    by Crouse's method (IEEE TAES, 2016) with the row order, column scan,
    tie rule and dual updates of scipy's ``linear_sum_assignment``."""
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur_row in range(n):
        shortest = [math.inf] * n
        rows_seen, cols_seen = [], []
        remaining = list(range(n - 1, -1, -1))
        min_val, i, sink = 0.0, cur_row, -1
        while sink == -1:
            rows_seen.append(i)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                reduced = min_val + cost[i][j] - u[i] - v[j]
                if reduced < shortest[j]:
                    path[j] = i
                    shortest[j] = reduced
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    index, lowest = it, shortest[j]
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual updates, then augment along the path back to cur_row
        u[cur_row] += min_val
        for i in rows_seen[1:]:  # rows_seen[0] is cur_row, still unassigned
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def hungarian_assign(gain: np.ndarray) -> list[tuple[int, int]]:
    """Assignment of rows to columns maximizing total gain.

    Rectangular matrices are padded internally with zero-gain dummy rows or
    columns, so the smaller side is always fully assigned. The negated
    padded matrix goes to Crouse's shortest-augmenting-path solver, whose
    tie rule (an unassigned column wins among equal reduced costs, columns
    scanned from the last) picks the same pairs as scipy's
    ``linear_sum_assignment(padded, maximize=True)``, zero-gain pairs
    included. Returns (row, column) pairs sorted by row.
    """
    gain = np.asarray(gain, dtype=float)
    if gain.size == 0:
        return []
    if gain.ndim != 2:
        raise ValueError(f"gain matrix must be 2-d, got shape {gain.shape}")
    if not np.all(np.isfinite(gain)):
        raise ValueError("gain matrix must be finite")
    n_rows, n_cols = gain.shape
    size = max(n_rows, n_cols)
    padded = np.zeros((size, size), dtype=float)
    padded[:n_rows, :n_cols] = gain
    cols = _shortest_augmenting_path((-padded).tolist())
    return [(r, c) for r, c in enumerate(cols) if r < n_rows and c < n_cols]


def uc_map(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    iou_threshold: float = 0.5,
) -> tuple[float, dict[int, int]]:
    """Unknown-class mAP: mean AP over true unknown classes under the best
    matching of predicted unknown ids to true unknown classes.

    The gain matrix holds the AP of each predicted unknown id scored against
    each true unknown class; the assignment maximizing total AP is chosen,
    unassigned true classes contribute 0, and the mean runs over all true
    unknown classes. Returns ``(value, {predicted_id: true_class_id})``.
    Raises if the ground truth contains no unknown objects.
    """
    dets_by_class = _by_class(dets, known=False)
    gts_by_class = _by_class(gts, known=False)
    if not gts_by_class:
        raise ValueError("uc_map undefined: ground truth contains no unknown objects")
    if not dets_by_class:
        return 0.0, {}
    pred_ids, gt_ids = sorted(dets_by_class), sorted(gts_by_class)
    gain = np.array(
        [
            [
                average_precision(dets_by_class[u], gts_by_class[v], iou_threshold)
                for v in gt_ids
            ]
            for u in pred_ids
        ]
    )
    pairs = hungarian_assign(gain)
    total = sum(gain[r, c] for r, c in pairs)
    permutation = {pred_ids[r]: gt_ids[c] for r, c in pairs}
    return float(total / len(gt_ids)), permutation


def uc_recall(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    permutation: dict[int, int],
    iou_threshold: float = 0.5,
) -> float:
    """Pooled recall of unknown ground truth under a fixed id matching.

    Each predicted unknown id is scored only against the true class the
    permutation assigns it; unassigned true classes contribute misses. The
    denominator is the total number of unknown ground-truth objects.
    """
    dets_by_class = _by_class(dets, known=False)
    gts_by_class = _by_class(gts, known=False)
    npos = sum(len(v) for v in gts_by_class.values())
    if npos == 0:
        raise ValueError("uc_recall undefined: ground truth contains no unknown objects")
    tp = 0
    for pred_id, gt_id in permutation.items():
        _, hits = _greedy_match(
            dets_by_class.get(pred_id, []), gts_by_class.get(gt_id, []), iou_threshold
        )
        tp += sum(hits)
    return tp / npos


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = 0.5
    score_threshold: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError("iou threshold must lie in (0, 1]")
        if not (0.0 <= self.score_threshold <= 1.0):
            raise ValueError("score threshold must lie in [0, 1]")


@dataclass(frozen=True)
class EvalReport:
    """Aggregate evaluation outcome.

    ``map_known`` averages AP over known classes present in the ground
    truth. ``permutation`` records the predicted-to-true unknown id matching
    behind ``uc_map`` and ``uc_recall``. ``warnings`` flags degenerate
    quantities that were reported as 0.
    """

    map_known: float
    wi: float
    a_ose: int
    uc_map: float
    uc_recall: float
    permutation: dict[int, int] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


def evaluate(
    gts: Sequence[GroundTruthObject],
    dets: Sequence[Detection],
    config: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Score detections against ground truth and assemble the full report.

    Detections below the score threshold are dropped before any metric is
    computed. Raises if the ground truth has no unknown objects, since the
    unknown-class metrics are undefined there.
    """
    kept = [d for d in dets if d.score >= config.score_threshold]
    warnings: list[str] = []

    match = match_known_detections(kept, gts, config.iou_threshold)
    if match.ap:
        map_known = float(np.mean(list(match.ap.values())))
    else:
        map_known = 0.0
        warnings.append("map_known_degenerate_no_known_ground_truth")
    a_ose = absolute_open_set_error(match, gts, config.iou_threshold)
    if match.tp_known + match.fp_known == 0:
        warnings.append("wi_degenerate_no_known_detections")
    wi = wilderness_impact(match, a_ose)

    uc_map_value, permutation = uc_map(kept, gts, config.iou_threshold)
    uc_recall_value = uc_recall(kept, gts, permutation, config.iou_threshold)

    return EvalReport(
        map_known=map_known,
        wi=wi,
        a_ose=a_ose,
        uc_map=uc_map_value,
        uc_recall=uc_recall_value,
        permutation=permutation,
        warnings=tuple(warnings),
    )
