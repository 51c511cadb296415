"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way: corner
arithmetic for overlap, O(n^2) suppression loops, exhaustive permutation
search for the assignment problem, and direct-from-definition
precision/recall bookkeeping. Nothing calls the package's own metric or
loss code, so agreement between the two is meaningful; the file readers at
the end build the package's value and config types.
"""

import contextlib
import dataclasses
import itertools
import json
import math
import sys
import typing
from pathlib import Path
from typing import Optional

import numpy as np
from hypothesis import settings

from ucowod.core import Box, ClassLabel, Detection, DetectionTable, GroundTruthObject, iou, label_for_class_id
from ucowod.harness import RunConfig, SyntheticDataset, SyntheticScene, ToyHead
from ucowod.io import SchemaError
from ucowod.losses import LossWeights
from ucowod.pseudo_label import UlpConfig


# ---------------------------------------------------------------------------
# geometry


def iou_ref(a, b):
    """Overlap over union via corner arithmetic (a, b are Box-like with
    cx/cy/w/h attributes)."""
    ax0, ay0, ax1, ay1 = a.cx - a.w / 2, a.cy - a.h / 2, a.cx + a.w / 2, a.cy + a.h / 2
    bx0, by0, bx1, by1 = b.cx - b.w / 2, b.cy - b.h / 2, b.cx + b.w / 2, b.cy + b.h / 2
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return min(inter / union, 1.0)


def nms_ref(scored_boxes, threshold):
    """Greedy suppression, O(n^2): score descending, ties by input index."""
    order = sorted(range(len(scored_boxes)), key=lambda i: (-scored_boxes[i][1], i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if iou_ref(scored_boxes[i][0], scored_boxes[j][0]) > threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return sorted(kept)


# ---------------------------------------------------------------------------
# matching and average precision


def match_flags_ref(dets, gts, iou_threshold):
    """Greedy per-image matching for a single class.

    ``dets`` and ``gts`` are lists of objects with image_id and box.
    Returns a TP flag per detection, in score-descending order of the
    input (ties by input index), along with that order.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = set()
    flags = []
    for i in order:
        det = dets[i]
        best_j, best_iou = None, 0.0
        for j, gt in enumerate(gts):
            if j in taken or gt.image_id != det.image_id:
                continue
            v = iou_ref(det.box, gt.box)
            # a hit needs the boxes to overlap, even at threshold 0
            if v >= iou_threshold and v > best_iou:
                best_j, best_iou = j, v
        if best_j is not None:
            taken.add(best_j)
            flags.append(True)
        else:
            flags.append(False)
    return flags, order


def ap_ref(dets, gts, iou_threshold):
    """All-point interpolated average precision, straight from the
    definition: at every recall step reached by a true positive, take the
    best precision at that recall or beyond."""
    if not gts:
        return 0.0
    if not dets:
        return 0.0
    flags, _ = match_flags_ref(dets, gts, iou_threshold)
    n_gt = len(gts)
    precisions, recalls = [], []
    tp = fp = 0
    for flag in flags:
        if flag:
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / n_gt)
    ap = 0.0
    prev_recall = 0.0
    for k, flag in enumerate(flags):
        if not flag:
            continue
        step = recalls[k] - prev_recall
        best_later = max(precisions[k:])
        ap += step * best_later
        prev_recall = recalls[k]
    return ap


# ---------------------------------------------------------------------------
# open-world metrics


def known_tp_detections_ref(dets, gts, iou_threshold):
    """Indices (into dets) of known-labeled detections that are true
    positives for some known ground truth of their own class."""
    tp_indices = set()
    known_classes = sorted({g.label.class_id for g in gts if g.label.is_known})
    for cls in known_classes:
        cls_dets = [(i, d) for i, d in enumerate(dets) if d.label.is_known and d.label.class_id == cls]
        cls_gts = [g for g in gts if g.label.is_known and g.label.class_id == cls]
        order = sorted(range(len(cls_dets)), key=lambda k: (-cls_dets[k][1].score, k))
        taken = set()
        for k in order:
            i, det = cls_dets[k]
            best_j, best_iou = None, 0.0
            for j, gt in enumerate(cls_gts):
                if j in taken or gt.image_id != det.image_id:
                    continue
                v = iou_ref(det.box, gt.box)
                # a hit needs the boxes to overlap, even at threshold 0
                if v >= iou_threshold and v > best_iou:
                    best_j, best_iou = j, v
            if best_j is not None:
                taken.add(best_j)
                tp_indices.add(i)
    return tp_indices


def a_ose_ref(dets, gts, iou_threshold):
    """Unknown ground-truth objects covered by a known-labeled detection
    that is not itself a known-class true positive; each counted once."""
    tp_indices = known_tp_detections_ref(dets, gts, iou_threshold)
    danger = [d for i, d in enumerate(dets) if d.label.is_known and i not in tp_indices]
    count = 0
    for gt in gts:
        if not gt.label.is_unknown:
            continue
        for det in danger:
            v = iou_ref(det.box, gt.box) if det.image_id == gt.image_id else 0.0
            # covering needs the boxes to overlap, even at threshold 0
            if v >= iou_threshold and v > 0:
                count += 1
                break
    return count


def wi_ref(dets, gts, iou_threshold):
    tp_indices = known_tp_detections_ref(dets, gts, iou_threshold)
    n_known_dets = sum(1 for d in dets if d.label.is_known)
    if n_known_dets == 0:
        return 0.0
    return a_ose_ref(dets, gts, iou_threshold) / n_known_dets


def hungarian_ref(gain):
    """Exhaustive maximum assignment. Enumerates injections of the smaller
    side into the larger one; returns (total, sorted pair list)."""
    gain = np.asarray(gain, dtype=float)
    n_rows, n_cols = gain.shape
    if n_rows == 0 or n_cols == 0:
        return 0.0, []
    best_total, best_pairs = -math.inf, []
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            total = sum(gain[r, c] for r, c in enumerate(cols))
            if total > best_total:
                best_total = total
                best_pairs = sorted(zip(range(n_rows), cols))
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            total = sum(gain[r, c] for c, r in enumerate(rows))
            if total > best_total:
                best_total = total
                best_pairs = sorted(zip(rows, range(n_cols)))
    return float(best_total), [(int(r), int(c)) for r, c in best_pairs]


def uc_map_ref(dets, gts, iou_threshold):
    """Best-correspondence unknown-class mAP by exhaustive search."""
    gt_classes = sorted({g.label.class_id for g in gts if g.label.is_unknown})
    if not gt_classes:
        raise ValueError("no unknown ground truth")
    pred_classes = sorted({d.label.class_id for d in dets if d.label.is_unknown})
    if not pred_classes:
        return 0.0, {}
    gain = np.zeros((len(pred_classes), len(gt_classes)))
    for r, u in enumerate(pred_classes):
        cls_dets = [d for d in dets if d.label.is_unknown and d.label.class_id == u]
        for c, v in enumerate(gt_classes):
            cls_gts = [g for g in gts if g.label.is_unknown and g.label.class_id == v]
            gain[r, c] = ap_ref(cls_dets, cls_gts, iou_threshold)
    total, pairs = hungarian_ref(gain)
    permutation = {pred_classes[r]: gt_classes[c] for r, c in pairs}
    return total / len(gt_classes), permutation


def uc_recall_ref(dets, gts, permutation, iou_threshold):
    """Pooled recall of unknown ground truth under a fixed correspondence."""
    total_gt = sum(1 for g in gts if g.label.is_unknown)
    if total_gt == 0:
        raise ValueError("no unknown ground truth")
    matched = 0
    for pred_id, gt_id in permutation.items():
        cls_dets = [d for d in dets if d.label.is_unknown and d.label.class_id == pred_id]
        cls_gts = [g for g in gts if g.label.is_unknown and g.label.class_id == gt_id]
        flags, _ = match_flags_ref(cls_dets, cls_gts, iou_threshold)
        matched += sum(flags)
    return matched / total_gt


# ---------------------------------------------------------------------------
# detection head


def head_create_ref(feature_dim, hidden_dim, n_logits, seed):
    """The six arrays of a new head as ``ToyHead.create`` drew them when it
    held them apart, in the names of ``model.json``."""
    rng = np.random.default_rng(seed)
    return {
        "w_hidden": rng.standard_normal((feature_dim, hidden_dim)),
        "b_hidden": np.zeros(hidden_dim),
        "w_cls": rng.standard_normal((hidden_dim, n_logits)),
        "b_cls": 0.01 * rng.standard_normal(n_logits),
        "w_reg": rng.standard_normal((hidden_dim, 4)),
        "b_reg": np.zeros(4),
    }


def fold_ref(arrays):
    """The head whose six arrays, in the names of ``model.json``, are
    ``arrays``: each layer's bias is the last row of its matrix, and the
    logits come before the deltas."""
    w1 = np.concatenate([arrays["w_hidden"], arrays["b_hidden"][None, :]])
    w2 = np.concatenate([arrays["w_cls"], arrays["w_reg"]], axis=1)
    b2 = np.concatenate([arrays["b_cls"], arrays["b_reg"]])
    return ToyHead(w1, np.concatenate([w2, b2[None, :]]))


def head_forward_ref(arrays, features):
    """The head on the six arrays of ``model.json``, each bias added after
    its GEMM. Returns (hidden, logits, deltas)."""
    hidden = np.maximum(features @ arrays["w_hidden"] + arrays["b_hidden"], 0.0)
    return hidden, hidden @ arrays["w_cls"] + arrays["b_cls"], hidden @ arrays["w_reg"] + arrays["b_reg"]


def folded_forward_ref(head, features):
    """Oracle of ``ToyHead.forward``, allocating every array: the input and
    the rectified hidden layer each get a column of ones. Returns
    (inputs, hidden, outputs)."""
    ones = np.ones((len(features), 1))
    inputs = np.hstack([features, ones])
    hidden = np.hstack([np.maximum(inputs @ head.w1, 0.0), ones])
    return inputs, hidden, hidden @ head.w2


def folded_gradients_ref(head, inputs, hidden, grad_outputs):
    """Oracle of ``ToyHead.gradients``, allocating as ``folded_forward_ref``
    does. Where a hidden unit is 0 and its gradient is negative, the
    rectifier's product is -0.0."""
    grad_hidden = (grad_outputs @ head.w2[:-1].T) * (hidden[:, :-1] > 0)
    return inputs.T @ grad_hidden, hidden.T @ grad_outputs


# ---------------------------------------------------------------------------
# losses


def softmax_ref(values):
    values = np.asarray(values, dtype=float)
    shifted = values - values.max()
    e = np.exp(shifted)
    return e / e.sum()


def classification_loss_ref(logits, labels, known_count):
    """Row-by-row cross entropy with the visibility rules spelled out.

    Known and background rows compete over [known slots] + [background];
    pseudo-unknown rows additionally see their single best unknown slot.
    """
    logits = np.asarray(logits, dtype=float)
    n_rows, width = logits.shape
    n_unknown = width - known_count - 1
    total = 0.0
    for i, label in enumerate(labels):
        row = logits[i]
        visible = list(range(known_count)) + [width - 1]
        if label.is_background:
            target = width - 1
        elif label.is_known:
            target = label.class_id
        else:
            unknown_slots = list(range(known_count, known_count + n_unknown))
            best = max(unknown_slots, key=lambda s: (row[s], -s))
            visible = list(range(known_count)) + [best, width - 1]
            target = best
        probs = softmax_ref(row[visible])
        total += -math.log(probs[visible.index(target)])
    return total / n_rows


def cosine_matrix_ref(rows, eps=1e-6):
    rows = np.asarray(rows, dtype=float)
    n = len(rows)
    S = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            denom = np.linalg.norm(rows[i]) * np.linalg.norm(rows[j])
            S[i, j] = float(rows[i] @ rows[j]) / denom
    return np.clip(S, eps, 1 - eps)


def cosine_grad_ref(rows, upstream, eps=1e-6):
    """Backpropagate a gradient wrt the clamped cosine matrix onto the rows,
    by the chain rule ``d S_ij / d x_i = (u_j - S_ij u_i) / |x_i|`` with
    ``u`` the unit rows, applied to both ``S_ij`` and ``S_ji``. Entries
    pinned at the clamp bounds pass no gradient."""
    rows = np.asarray(rows, dtype=float)
    norms = np.sqrt((rows * rows).sum(axis=1))
    unit = rows / norms[:, None]
    raw = unit @ unit.T
    raw = (raw + raw.T) / 2.0
    active = (raw > eps) & (raw < 1.0 - eps)
    upstream = np.asarray(upstream, dtype=float)
    G = (upstream + upstream.T) * active
    return (G @ unit - (G * raw).sum(axis=1, keepdims=True) * unit) / norms[:, None]


def pair_verdicts_ref(codes, unknown, similarity=None, lam=None):
    """Dense pair verdicts, entry by entry: a pair of equal codes, neither
    unknown, is positive, a pair of differing labels negative, and an
    unknown x unknown pair undecided, unless ``lam`` is given: then it is
    positive above ``0.95 - lam`` and negative below ``0.455 + 0.1 lam`` in
    ``similarity``. Returns the positive and negative masks."""
    n = len(codes)
    positive, negative = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if unknown[i] and unknown[j]:
                if lam is not None:
                    positive[i, j] = similarity[i, j] > 0.95 - lam
                    negative[i, j] = similarity[i, j] < 0.455 + 0.1 * lam
            elif unknown[i] or unknown[j] or codes[i] != codes[j]:
                negative[i, j] = True
            else:
                positive[i, j] = True
    return positive, negative


def pair_bce_ref(similarity, positive, negative):
    """Mean binary cross entropy over the selected entries of a similarity
    matrix, and its gradient wrt the matrix; positive/negative are boolean
    masks over the full matrix. Without a selected entry both are zero."""
    S = np.asarray(similarity, dtype=float)
    total, count = 0.0, 0
    grad = np.zeros_like(S)
    n = len(S)
    for i in range(n):
        for j in range(n):
            if positive[i][j]:
                total += -math.log(S[i, j])
                grad[i, j] = -1.0 / S[i, j]
                count += 1
            elif negative[i][j]:
                total += -math.log(1 - S[i, j])
                grad[i, j] = 1.0 / (1 - S[i, j])
                count += 1
    if not count:
        return 0.0, grad
    return total / count, grad / count


def pair_kernel_ref(embeddings, codes, unknown, lam=None, tile_rows=64):
    """Oracle of ``losses.pair_similarity_loss``: the tiled kernel as it was
    when it rebuilt its label-only state (group ids, masks and counts) on
    every call and took the rows in the caller's order, verbatim but for the
    package's constants, spelled out, the tile size, passed in, and the band
    width, which the kernel's value no longer adds (``train`` does). Its
    counts must equal the planned kernel's exactly; its value and gradient
    equal them up to the rounding of the kernel's other summation order."""
    eps = 1e-6
    upper = None if lam is None else 0.95 - 1.0 * lam
    lower = None if lam is None else 0.455 + 0.1 * lam
    if lam is not None and upper <= lower:
        raise RuntimeError(f"self-supervision terminated at lam={lam}")
    E = np.asarray(embeddings, dtype=float)
    norms = np.sqrt((E * E).sum(axis=1))
    if (norms == 0.0).any():
        raise ValueError(f"zero-norm embedding rows: {np.flatnonzero(norms == 0.0).tolist()}")
    unit = E / norms[:, None]
    codes, unknown = np.asarray(codes), np.asarray(unknown, dtype=bool)
    n = len(unit)
    values, group = np.unique(codes, return_inverse=True)
    group[unknown] = len(values)
    group = group.astype(np.min_scalar_type(len(values)))
    acc = np.zeros_like(unit)
    raw_buf, upstream_buf = np.empty(tile_rows * n), np.empty(tile_rows * n)
    total, positive, negative = 0.0, 0, 0
    for s in range(0, n, tile_rows):
        e = min(s + tile_rows, n)
        r = e - s
        raw = np.matmul(unit[s:e], unit[s:].T, out=raw_buf[: r * (n - s)].reshape(r, n - s))
        active = (raw > eps) & (raw < 1.0 - eps)
        S = np.clip(raw, eps, 1.0 - eps, out=raw)
        same = group[s:e, None] == group[s:]
        pos = same & ~unknown[s:e, None]
        neg = ~same
        if lam is not None and unknown[s:e].any() and unknown[s:].any():
            both_unknown = same & unknown[s:e, None]
            pos |= both_unknown & (S > upper)
            neg |= both_unknown & (S < lower)
        selected = pos | neg
        q = np.subtract(neg, S, out=S)
        upstream = np.divide(active & selected, q, out=upstream_buf[: q.size].reshape(q.shape))
        acc[s:e] += upstream @ unit[s:]
        acc[e:] += upstream[:, r:].T @ unit[s:e]
        log_x = np.log(np.maximum(np.abs(q, out=q), ~selected, out=q), out=q)
        total -= 2.0 * log_x.sum() - log_x[:, :r].sum()
        positive += 2 * int(np.count_nonzero(pos)) - int(np.count_nonzero(pos[:, :r]))
        negative += 2 * int(np.count_nonzero(neg)) - int(np.count_nonzero(neg[:, :r]))
    if positive + negative == 0:
        return 0.0, np.zeros_like(unit), 0, 0
    grad = acc - (unit * acc).sum(axis=1)[:, None] * unit
    grad -= (unit * grad).sum(axis=1)[:, None] * unit
    grad /= norms[:, None]
    scale = 1.0 / (positive + negative)
    return total * scale, grad * (2.0 * scale), positive, negative


def l1_loss_ref(pred, target):
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    return float(np.abs(pred - target).mean())


# ---------------------------------------------------------------------------
# clustering

def soft_assignment_ref(points, centroids):
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    P = np.empty((len(points), len(centroids)))
    for i, x in enumerate(points):
        kernels = [1.0 / (1.0 + float(((x - c) ** 2).sum())) for c in centroids]
        s = sum(kernels)
        for j, k in enumerate(kernels):
            P[i, j] = k / s
    return P


def target_distribution_ref(P):
    P = np.asarray(P, dtype=float)
    freq = P.sum(axis=0)
    Q = np.empty_like(P)
    for i in range(len(P)):
        ratios = [P[i, j] ** 2 / freq[j] for j in range(P.shape[1])]
        s = sum(ratios)
        for j, r in enumerate(ratios):
            Q[i, j] = r / s
    return Q


def kl_ref(Q, P, floor=1e-12):
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    total = 0.0
    for i in range(len(Q)):
        for j in range(Q.shape[1]):
            q, p = Q[i, j], P[i, j]
            if q > 0:
                total += q * math.log(max(q, floor) / max(p, floor))
    return total


def silhouette_ref(points, assignments):
    """Mean silhouette, point by point, under Euclidean distance. Points in
    singleton clusters and points with a zero denominator score 0; fewer
    than two clusters raise."""
    X = np.asarray(points, dtype=float)
    assign = np.asarray(assignments)
    cluster_ids = np.unique(assign)
    if len(cluster_ids) < 2:
        raise ValueError("silhouette needs at least two clusters")
    dists = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    scores = np.zeros(len(X))
    for i in range(len(X)):
        same = assign == assign[i]
        n_same = int(same.sum())
        if n_same <= 1:
            continue
        within = dists[i][same].sum() / (n_same - 1)
        nearest_other = min(
            dists[i][assign == c].mean() for c in cluster_ids if c != assign[i]
        )
        denom = max(within, nearest_other)
        if denom > 0:
            scores[i] = (nearest_other - within) / denom
    return float(scores.mean())


def best_permutation_accuracy(assignments, truth):
    """Clustering accuracy maximized over relabelings of the clusters."""
    assignments = np.asarray(assignments)
    truth = np.asarray(truth)
    clusters = sorted(set(assignments.tolist()))
    classes = sorted(set(truth.tolist()))
    best = 0
    small, large = (clusters, classes) if len(clusters) <= len(classes) else (classes, clusters)
    for mapped in itertools.permutations(large, len(small)):
        pairing = dict(zip(small, mapped))
        if len(clusters) <= len(classes):
            hits = sum(1 for a, t in zip(assignments, truth) if pairing.get(a) == t)
        else:
            hits = sum(1 for a, t in zip(assignments, truth) if pairing.get(t) == a)
        best = max(best, hits)
    return best / len(truth)


# ---------------------------------------------------------------------------
# property tests


def examples(n):
    """A test's example count: ``n`` under the default of 100 examples,
    scaled with the loaded hypothesis profile's own count."""
    return n * settings.default.max_examples // 100


# ---------------------------------------------------------------------------
# finite differences


def central_difference(fn, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function of an
    ndarray, evaluated coordinate by coordinate."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        hi = fn(x)
        flat[k] = orig - eps
        lo = fn(x)
        flat[k] = orig
        gflat[k] = (hi - lo) / (2 * eps)
    return grad


def relative_error(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return float(np.abs(a - b).max() / scale)


def kl_soft_assignment_longdouble(Q, E, C, floor=1e-12):
    """``KL(Q || soft_assignment(E, C))`` evaluated in ``np.longdouble``.

    Near ``Q == P`` the KL gradient is ~1e-7 while float64 central
    differences carry ~1e-10 of rounding error; on x86-64 Linux
    ``longdouble`` is 80-bit extended precision, which pushes that error
    far below the gradient."""
    Q = np.asarray(Q, dtype=np.longdouble)
    E = np.asarray(E, dtype=np.longdouble)
    C = np.asarray(C, dtype=np.longdouble)
    kernel = 1 / (1 + ((E[:, None, :] - C[None, :, :]) ** 2).sum(axis=2))
    P = kernel / kernel.sum(axis=1, keepdims=True)
    log_ratio = np.log(np.maximum(Q, floor)) - np.log(np.maximum(P, floor))
    return np.where(Q > 0, Q * log_ratio, 0).sum()


# ---------------------------------------------------------------------------
# synthetic data


def sample_box_ref(rng, placed, image_size=100.0):
    """The box sampler with one ``Generator.uniform`` call per coordinate:
    a box overlapping ``placed`` by at most 0.1 IoU, or after 100 attempts
    the least-overlapping candidate."""
    best, best_overlap = None, np.inf
    for _ in range(100):
        w = rng.uniform(8.0, 16.0)
        h = rng.uniform(8.0, 16.0)
        cx = rng.uniform(w / 2.0, image_size - w / 2.0)
        cy = rng.uniform(h / 2.0, image_size - h / 2.0)
        box = Box(cx, cy, w, h)
        overlap = max((iou(box, other) for other in placed), default=0.0)
        if overlap <= 0.1:
            return box
        if overlap < best_overlap:
            best, best_overlap = box, overlap
    return best


def pseudo_labels_ref(boxes, objectness, known_boxes, config):
    """Pseudo-label selection with the suppression oracle and one IoU per
    proposal and known box: the rows of kept proposals clear of every known
    box, the ``top_k`` by objectness (ties by index), those above the floor."""
    proposals = [Box(*row) for row in boxes.tolist()]
    known = [Box(*row) for row in known_boxes.tolist()]
    kept = nms_ref(list(zip(proposals, objectness)), config.nms_threshold)
    clear = [i for i in kept if all(iou_ref(proposals[i], g) < config.known_overlap_threshold for g in known)]
    top = sorted(clear, key=lambda i: (-objectness[i], i))[: config.top_k]
    return np.array([i for i in top if objectness[i] > config.delta], dtype=int)


def training_rows_ref(dataset, config, target_iou=0.5):
    """Training targets by the per-pair loop: each proposal takes the first
    known or pseudo ground truth of the highest IoU at or above
    ``target_iou`` and its box-delta target, else background and zeros.
    Returns features, labels, delta targets, target mask and the number of
    pseudo labels."""
    features, labels, deltas, mask, n_pseudo = [], [], [], [], 0
    for scene in dataset.train:
        known = [g for g in scene.gts if g.label.is_known]
        proposals = [Box(*row) for row in scene.boxes.tolist()]
        pseudo = []
        if config.unknown_slots > 0:
            known_boxes = np.array([[g.box.cx, g.box.cy, g.box.w, g.box.h] for g in known]).reshape(-1, 4)
            rows = pseudo_labels_ref(scene.boxes, scene.objectness, known_boxes, config.ulp)
            pseudo = [(ClassLabel.unknown(config.known_classes), proposals[i]) for i in rows]
        n_pseudo += len(pseudo)
        for row, proposal in enumerate(proposals):
            best, best_overlap = None, 0.0
            for label, box in [(g.label, g.box) for g in known] + pseudo:
                overlap = iou(proposal, box)
                if overlap >= target_iou and overlap > best_overlap:
                    best, best_overlap = (label, box), overlap
            features.append(scene.features[row])
            mask.append(best is not None)
            if best is None:
                labels.append(ClassLabel.background())
                deltas.append(np.zeros(4))
            else:
                labels.append(best[0])
                b, p = best[1], proposal
                deltas.append(np.array([b.cx - p.cx, b.cy - p.cy, b.w - p.w, b.h - p.h]))
    return np.array(features), tuple(labels), np.array(deltas), np.array(mask, dtype=bool), n_pseudo


# ---------------------------------------------------------------------------
# file readers: the record-by-record readers that the table-driven ones in
# ``ucowod.io`` replaced, kept as the oracle for their accept/reject decisions
# and messages


def _ref_require(condition, where, template, *args):
    if not condition:
        raise SchemaError(f"{where}: {template.format(*args)}")


def _ref_is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _ref_is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _ref_read_json_object(path):
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    _ref_require(isinstance(payload, dict), str(path), "top level must be a JSON object")
    return payload


@contextlib.contextmanager
def _ref_rejected_as_schema(where):
    try:
        yield
    except SchemaError:
        raise
    except KeyError as exc:
        raise SchemaError(f"{where}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _ref_field(record, key, where):
    _ref_require(key in record, where, "missing key {!r}", key)
    return record[key]


def _ref_parse_bbox(raw, where):
    _ref_require(isinstance(raw, list) and len(raw) == 4, where, "bbox must be a list of 4 numbers, got {!r}", raw)
    _ref_require(all(_ref_is_number(v) for v in raw), where, "bbox values must be finite numbers, got {!r}", raw)
    cx, cy, w, h = (float(v) for v in raw)
    _ref_require(w > 0 and h > 0, where, "bbox sides must be positive, got w={}, h={}", w, h)
    return Box(cx, cy, w, h)


def _ref_parse_int(record, key, where):
    value = _ref_field(record, key, where)
    _ref_require(_ref_is_int(value), where, "{} must be an integer, got {!r}", key, value)
    return value


def load_ground_truth_ref(path):
    """(objects, known_count, unknown_slots), each annotation checked in turn."""
    payload = _ref_read_json_object(path)
    where = str(path)
    known_count = _ref_parse_int(payload, "known_count", where)
    unknown_slots = _ref_parse_int(payload, "unknown_slots", where)
    _ref_require(known_count >= 0 and unknown_slots >= 0, where, "class counts must be non-negative")
    _ref_require(isinstance(payload.get("annotations"), list), where, "annotations must be a list")
    objects = []
    for index, record in enumerate(payload["annotations"]):
        record_where = f"{path}: annotations[{index}]"
        _ref_require(isinstance(record, dict), record_where, "record must be an object, got {!r}", record)
        image_id = _ref_parse_int(record, "image_id", record_where)
        class_id = _ref_parse_int(record, "class_id", record_where)
        _ref_require(class_id >= 0, record_where, "class_id must be non-negative, got {}", class_id)
        box = _ref_parse_bbox(record.get("bbox"), record_where)
        objects.append(GroundTruthObject(image_id, label_for_class_id(class_id, known_count), box))
    return objects, known_count, unknown_slots


def detection_table(detections, known_count):
    """The ``DetectionTable`` of a list of ``Detection``s, field by field."""
    return DetectionTable(
        known_count,
        [d.image_id for d in detections],
        [d.label.class_id for d in detections],
        Box.array([d.box for d in detections]),
        [d.score for d in detections],
    )


def load_detections_ref(path, known_count, unknown_slots):
    """The detections of a JSON Lines file, each line checked in turn."""
    path = Path(path)
    detections = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {line_no}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{where}: not valid JSON ({exc})") from exc
            _ref_require(isinstance(record, dict), where, "record must be an object, got {!r}", record)
            image_id = _ref_parse_int(record, "image_id", where)
            class_id = _ref_parse_int(record, "class_id", where)
            n_classes = known_count + unknown_slots
            _ref_require(0 <= class_id < n_classes, where, "class_id must lie in [0, {}), got {}", n_classes, class_id)
            box = _ref_parse_bbox(record.get("bbox"), where)
            score = _ref_field(record, "score", where)
            _ref_require(_ref_is_number(score) and 0.0 <= score <= 1.0, where,
                         "score must be a number in [0, 1], got {!r}", score)
            detections.append(
                Detection(image_id, label_for_class_id(class_id, known_count), box, float(score))
            )
    return detections


_REF_VALUE_CHECKS = {
    int: ("an integer", _ref_is_int),
    float: ("a finite number", _ref_is_number),
    Optional[int]: ("an integer or null", lambda v: v is None or _ref_is_int(v)),
}


def _ref_check_values(cls, values, prefix=""):
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        kind, ok = _REF_VALUE_CHECKS[hints[key]]
        _ref_require(ok(value), "config", "{}{} must be {}, got {!r}", prefix, key, kind, value)


def config_from_dict_ref(payload):
    """A RunConfig from a dictionary of overrides of its defaults."""
    _ref_require(isinstance(payload, dict), "config", "must be an object, got {!r}", payload)
    payload = dict(payload)
    known_fields = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(payload) - known_fields)
    nested = {key: cls for key, cls in (("ulp", UlpConfig), ("weights", LossWeights)) if key in payload}
    for key, cls in nested.items():
        _ref_require(isinstance(payload[key], dict), "config", "{} must be an object, got {!r}", key, payload[key])
        names = {f.name for f in dataclasses.fields(cls)}
        unknown += sorted(f"{key}.{name}" for name in set(payload[key]) - names)
    if unknown:
        raise SchemaError(f"unknown config keys: {unknown}")
    _ref_check_values(RunConfig, {k: v for k, v in payload.items() if k not in nested})
    for key, cls in nested.items():
        _ref_check_values(cls, payload[key], f"{key}.")
        with _ref_rejected_as_schema(f"config.{key}"):
            payload[key] = cls(**payload[key])
    with _ref_rejected_as_schema("config"):
        return RunConfig(**payload)


def load_config_ref(path):
    return config_from_dict_ref(_ref_read_json_object(path))


def _ref_check_scene_records(payload, config, where):
    image_id = _ref_parse_int(payload, "image_id", where)
    boxes, objectness = [], []
    _ref_require(isinstance(payload["proposals"], list), where, "proposals must be a list")
    for record in payload["proposals"]:
        score = record["objectness"]
        _ref_require(_ref_is_number(score), where, "objectness must be a finite number, got {!r}", score)
        box = _ref_parse_bbox(record["bbox"], where)
        _ref_require(0.0 <= score <= 1.0, where, "objectness must lie in [0, 1], got {}", score)
        boxes.append([box.cx, box.cy, box.w, box.h])
        objectness.append(score)
    gts = []
    _ref_require(isinstance(payload["gts"], list), where, "gts must be a list")
    for record in payload["gts"]:
        label = label_for_class_id(_ref_parse_int(record, "class_id", where), config.known_classes)
        gts.append(GroundTruthObject(image_id, label, _ref_parse_bbox(record["bbox"], where)))
    raw = payload["features"]
    features = np.array(raw, dtype=float)
    if features.size == 0:
        features = features.reshape(0, config.feature_dim)
    shape = (len(boxes), config.feature_dim)
    _ref_require(features.shape == shape, where, "features must have shape {}, got {}", shape, features.shape)
    _ref_require(all(_ref_is_number(v) for row in raw for v in row), where, "features must be finite numbers")
    boxes, objectness = np.array(boxes, dtype=float).reshape(-1, 4), np.array(objectness, dtype=float)
    return SyntheticScene(image_id, boxes, objectness, gts, features)


def load_dataset_ref(path):
    """A dataset, each scene walked record by record."""
    payload = _ref_read_json_object(path)
    raw_config = _ref_field(payload, "config", str(path))
    try:
        config = config_from_dict_ref(raw_config)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    splits = {}
    for split in ("train", "test"):
        scenes = _ref_field(payload, split, str(path))
        _ref_require(isinstance(scenes, list), str(path), "{} must be a list", split)
        parsed = []
        for index, scene in enumerate(scenes):
            where = f"{path}: {split}[{index}]"
            with _ref_rejected_as_schema(where):
                parsed.append(_ref_check_scene_records(scene, config, where))
        splits[split] = parsed
    return SyntheticDataset(config=config, **splits)


_REF_HEAD_SHAPES = {
    "w_hidden": ("F", "H"),
    "b_hidden": ("H",),
    "w_cls": ("H", "L"),
    "b_cls": ("L",),
    "w_reg": ("H", 4),
    "b_reg": (4,),
}


def _ref_head_array(raw, ndim, where, key):
    rows = [raw] if ndim == 1 else raw
    ok = isinstance(rows, list) and all(isinstance(row, list) and row for row in rows)
    ok = ok and len(set(map(len, rows))) == 1
    values = list(itertools.chain.from_iterable(rows)) if ok else []
    ok = ok and all(_ref_is_number(v) for v in values)
    _ref_require(ok, where, "{} must be a non-empty {}-d array of finite numbers", key, ndim)
    return np.array(values, dtype=float).reshape((len(rows), -1)[2 - ndim :])


def load_head_ref(path, config=None):
    """A head; given a config, F must be its feature_dim and L its head_width()."""
    payload = _ref_read_json_object(path)
    where = str(path)
    arrays = _ref_field(payload, "arrays", where)
    _ref_require(isinstance(arrays, dict), where, "arrays must be an object, got {!r}", arrays)
    unknown = sorted(set(arrays) - set(_REF_HEAD_SHAPES))
    _ref_require(not unknown, where, "unknown arrays: {}", unknown)
    dims = {} if config is None else {"F": config.feature_dim, "L": config.head_width()}
    parsed = {}
    for key, symbols in _REF_HEAD_SHAPES.items():
        parsed[key] = _ref_head_array(_ref_field(arrays, key, where), len(symbols), where, f"arrays.{key}")
        shape = parsed[key].shape
        expected = tuple(dims.setdefault(s, n) if isinstance(s, str) else s for s, n in zip(symbols, shape))
        _ref_require(shape == expected, where, "arrays.{} must have shape {}, got {}", key, expected, shape)
    return fold_ref(parsed)
