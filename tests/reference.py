"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way: corner
arithmetic for overlap, O(n^2) suppression loops, exhaustive permutation
search for the assignment problem, and direct-from-definition
precision/recall bookkeeping. Nothing imports from the package's own
metric or loss code, so agreement between the two is meaningful.
"""

import itertools
import math

import numpy as np


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
        best_j, best_iou = None, -1.0
        for j, gt in enumerate(gts):
            if j in taken or gt.image_id != det.image_id:
                continue
            v = iou_ref(det.box, gt.box)
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
            best_j, best_iou = None, iou_threshold
            for j, gt in enumerate(cls_gts):
                if j in taken or gt.image_id != det.image_id:
                    continue
                v = iou_ref(det.box, gt.box)
                if v >= iou_threshold and (best_j is None or v > best_iou):
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
            if det.image_id == gt.image_id and iou_ref(det.box, gt.box) >= iou_threshold:
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


def head_forward_ref(head, features):
    """Oracle of ``ToyHead.forward``: the head as it was when every call
    allocated its activations. Returns (hidden_pre, hidden, logits, deltas)."""
    hidden_pre = features @ head.w_hidden + head.b_hidden
    hidden = np.maximum(hidden_pre, 0.0)
    return hidden_pre, hidden, hidden @ head.w_cls + head.b_cls, hidden @ head.w_reg + head.b_reg


def head_gradients_ref(head, features, hidden_pre, hidden, grad_logits, grad_deltas):
    """Oracle of ``ToyHead.gradients``, allocating as ``head_forward_ref``
    does. Where ``hidden_pre`` is 0 or negative and the hidden gradient is
    negative, the rectifier's product is -0.0."""
    grad_hidden = grad_logits @ head.w_cls.T + grad_deltas @ head.w_reg.T
    grad_hidden_pre = grad_hidden * (hidden_pre > 0)
    return {
        "w_hidden": features.T @ grad_hidden_pre,
        "b_hidden": grad_hidden_pre.sum(axis=0),
        "w_cls": hidden.T @ grad_logits,
        "b_cls": grad_logits.sum(axis=0),
        "w_reg": hidden.T @ grad_deltas,
        "b_reg": grad_deltas.sum(axis=0),
    }


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


def pair_bce_ref(similarity, positive, negative):
    """Mean binary cross entropy over the selected entries of a similarity
    matrix; positive/negative are boolean masks over the full matrix."""
    S = np.asarray(similarity, dtype=float)
    total, count = 0.0, 0
    n = len(S)
    for i in range(n):
        for j in range(n):
            if positive[i][j]:
                total += -math.log(S[i, j])
                count += 1
            elif negative[i][j]:
                total += -math.log(1 - S[i, j])
                count += 1
    return total / count if count else 0.0


def pair_kernel_ref(embeddings, codes, unknown, lam=None, tile_rows=64):
    """Oracle of ``losses.pair_similarity_loss``: the tiled kernel as it was
    when it rebuilt its label-only state (group ids, masks and counts) on
    every call and took the rows in the caller's order, verbatim but for the
    package's constants, spelled out, and the tile size, passed in. Its
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
    penalty = 0.0 if lam is None else upper - lower
    if positive + negative == 0:
        return penalty, np.zeros_like(unit), 0, 0
    grad = acc - (unit * acc).sum(axis=1)[:, None] * unit
    grad -= (unit * grad).sum(axis=1)[:, None] * unit
    grad /= norms[:, None]
    scale = 1.0 / (positive + negative)
    return total * scale + penalty, grad * (2.0 * scale), positive, negative


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
