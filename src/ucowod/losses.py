"""Training losses for unknown-aware detection heads.

Logit layout: a head over ``C`` known classes with ``U`` unknown slots emits
vectors of width ``C + U + 1``; slots ``[0, C)`` are known classes, slots
``[C, C + U)`` are unknown classes, and the last slot is background.

Three loss families live here, each defined once, by the code training runs:

- ``classification_loss_from_plan``: cross-entropy where known and background
  rows see only the known+background slots, while unknown-labeled rows are
  trained on the single highest-scoring unknown slot. The restriction is
  implemented by masking invisible slots to a large negative logit before the
  softmax, which drives their probability (and gradient) to exactly zero in
  float64.
- ``pair_similarity_loss``: binary cross-entropy over the clamped cosine
  similarities of the embeddings, supervised by label agreement and, in the
  self-supervised phase, by thresholding the similarities under a closing
  threshold pair. It visits each unordered pair once, in strips of the rows
  sorted by label group, so that a label verdict covers a range of columns
  and unknown x unknown pairs are computed only when thresholds decide them.
- an elementwise L1 regression penalty and the weighted total.

The self-supervised phase follows a schedule of ``lam``: ``thresholds``,
``band_width``, ``schedule_terminated``, ``steps_to_termination`` and
``update_lambda``.

Their oracles, the row-by-row cross-entropy and the dense forms of the pair
term (the cosine matrix, the pair verdicts and the pair cross-entropy, with
gradients), are in ``tests/reference.py``.

Training calls both terms on the same labels every epoch, so what depends on
the labels alone is built once per run, in O(N) memory: a
``ClassificationPlan`` (``classification_plan``) and a ``PairPlan``
(``pair_plan``), which ``classification_loss_from_plan`` and
``pair_similarity_loss`` take. The pair plan also keeps the kernel's
strip-sized work buffers from its first call on, so a training epoch
allocates none. The pair value, which the gradient does not read, is a sum
of logs of products of up to 32 pair terms, one log per 32 pairs.

Every loss returns ``(value, gradient)`` with analytic gradients.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import inf
from typing import Optional, Sequence

import numpy as np

from .core import ClassLabel, LabelKind

CLAMP_EPS = 1e-6
MASK_LOGIT = -1e4
# rows per tile of pair_similarity_loss, whose memory is O(N * PAIR_TILE_ROWS);
# pair_plan reads it, so a plan keeps the tile size it was built with
PAIR_TILE_ROWS = 64


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


@dataclass(frozen=True)
class ClassificationPlan:
    """The label-only part of ``classification_loss_from_plan`` for one
    batch, built once per training run by ``classification_plan``: the
    slots every row sees (the known classes and background), each row's
    target slot (an unknown row's is replaced on each call by its best
    unknown slot), the unknown rows and the row index. Memory is O(N)."""

    known_count: int
    visible: np.ndarray
    targets: np.ndarray
    pseudo: np.ndarray
    rows: np.ndarray


def classification_plan(
    codes: np.ndarray, unknown: np.ndarray, known_count: int, width: int
) -> ClassificationPlan:
    """The plan for rows with the ``label_codes`` arrays ``codes`` and
    ``unknown`` under logits of ``width`` slots; raises on a label the head
    cannot score."""
    unknown_slots = width - known_count - 1
    if unknown_slots < 0:
        raise ValueError(f"logit width {width} too small for {known_count} known classes")
    background = width - 1
    codes, unknown = np.asarray(codes), np.asarray(unknown, dtype=bool)
    # the first offending row names the error (background codes are -1)
    bad = np.flatnonzero(np.where(unknown, unknown_slots == 0, codes >= known_count))
    if bad.size and unknown[bad[0]]:
        raise ValueError("unknown-labeled row but the head has no unknown slots")
    if bad.size:
        raise ValueError(f"known id {codes[bad[0]]} out of range [0, {known_count})")
    visible = np.zeros(width, dtype=bool)
    visible[:known_count] = True
    visible[background] = True
    return ClassificationPlan(
        known_count=known_count,
        visible=visible,
        targets=np.where(codes < 0, background, codes),
        pseudo=np.flatnonzero(unknown),
        rows=np.arange(len(codes)),
    )


def classification_loss_from_plan(logits: np.ndarray, plan: ClassificationPlan) -> tuple[float, np.ndarray]:
    """Unknown-aware cross-entropy of ``logits``, averaged over the rows
    ``plan`` was built for, and its gradient wrt the logits.

    Known and background rows are scored over the ``C + 1`` known+background
    slots. Unknown-labeled rows (the pseudo ground truth) contribute
    ``-log p`` of their highest-scoring unknown slot, so only that slot
    receives gradient. The plan holds the label checks and indexes, so that
    training builds them once, not every epoch."""
    Z = np.asarray(logits, dtype=float)
    n = len(plan.rows)
    if Z.shape != (n, len(plan.visible)):
        raise ValueError(f"logits of shape {Z.shape} for a plan of {n} rows and {len(plan.visible)} slots")
    masked = np.where(plan.visible, Z, MASK_LOGIT)
    targets = plan.targets
    if plan.pseudo.size:
        best = plan.known_count + Z[plan.pseudo, plan.known_count : -1].argmax(axis=1)
        masked[plan.pseudo, best] = Z[plan.pseudo, best]
        targets = targets.copy()
        targets[plan.pseudo] = best

    row_max = masked.max(axis=1, keepdims=True)
    exp = np.exp(masked - row_max)
    sums = exp.sum(axis=1)
    loss = float(np.mean(row_max[:, 0] + np.log(sums) - masked[plan.rows, targets]))

    probs = exp / sums[:, None]
    probs[plan.rows, targets] -= 1.0
    return loss, probs / n


def label_codes(labels: Sequence[ClassLabel]) -> tuple[np.ndarray, np.ndarray]:
    """Per-row int codes (the class id, -1 for background, the one kind
    without an id) and the mask of unknown-labeled rows."""
    codes = np.array([-1 if lab.class_id is None else lab.class_id for lab in labels], dtype=int)
    return codes, np.array([lab.kind is LabelKind.UNKNOWN for lab in labels], dtype=bool)


def _unit_rows(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-length rows and their norms; zero-norm rows have no direction."""
    E = np.asarray(embeddings, dtype=float)
    if E.ndim != 2:
        raise ValueError(f"embeddings must be 2-d, got shape {E.shape}")
    norms = np.sqrt((E * E).sum(axis=1))
    dead = np.flatnonzero(norms == 0.0)
    if dead.size:
        raise ValueError(f"zero-norm embedding rows: {dead.tolist()}")
    return E / norms[:, None], norms


# lam's similarity thresholds: upper(lam) = 0.95 - lam, lower(lam) = 0.455 + 0.1 lam
UPPER_INTERCEPT = 0.95
UPPER_SLOPE = 1.0
LOWER_INTERCEPT = 0.455
LOWER_SLOPE = 0.1


def thresholds(lam: float) -> tuple[float, float]:
    """The (upper, lower) similarity thresholds at ``lam``. Unknown x unknown
    pairs above the upper one are self-labeled positive and pairs below the
    lower one negative. As ``lam`` grows the band between them narrows,
    admitting more pairs, until they cross and self-supervision terminates."""
    return UPPER_INTERCEPT - UPPER_SLOPE * lam, LOWER_INTERCEPT + LOWER_SLOPE * lam


def band_width(lam: float) -> float:
    """Width of the undecided band: the penalty training adds to its total
    in the self-supervised phase, so that shrinking the band is rewarded. It
    depends on ``lam`` alone and passes no gradient to the head."""
    upper, lower = thresholds(lam)
    return upper - lower


def schedule_terminated(lam: float) -> bool:
    upper, lower = thresholds(lam)
    return upper <= lower


def steps_to_termination(lam0: float, eta: float) -> int:
    """Closed-form number of ``update_lambda`` steps until termination."""
    if eta <= 0:
        raise ValueError("eta must be positive to make progress")
    crossing = (UPPER_INTERCEPT - LOWER_INTERCEPT) / (UPPER_SLOPE + LOWER_SLOPE)
    remaining = crossing - lam0
    if remaining <= 0:
        return 0
    return int(np.ceil(remaining / (eta * (UPPER_SLOPE + LOWER_SLOPE))))


def update_lambda(lam: float, eta: float) -> float:
    """One gradient-descent step of ``lam`` against the band width, whose
    slope in ``lam`` is -(UPPER_SLOPE + LOWER_SLOPE)."""
    if eta < 0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    return lam + eta * (UPPER_SLOPE + LOWER_SLOPE)


@dataclass(frozen=True)
class PairPlan:
    """The label-only part of ``pair_similarity_loss`` for one batch, built
    once per training run by ``pair_plan`` in O(N) memory.

    ``order`` sorts the rows by group, background and the known codes in
    code order and then every unknown row, keeping their order within a
    group. ``strips`` cuts each group into strips of at most
    ``PAIR_TILE_ROWS`` rows of that order, as ``(start, end, group_end,
    unknown)``. ``positive`` and ``negative`` count the label-supervised
    verdicts over all N x N ordered pairs. ``work_size`` is the entry count
    of the largest strip of any phase, and ``work`` the kernel's buffers of
    that size, O(N * PAIR_TILE_ROWS), made on first use and reused by every
    later call, so a plan serves one call at a time."""

    order: np.ndarray
    strips: tuple[tuple[int, int, int, bool], ...]
    positive: int
    negative: int
    work_size: int

    @cached_property
    def work(self) -> tuple[np.ndarray, np.ndarray]:
        """Two float rows, the strip's similarities and its pair terms, and
        three bool rows, the clamp mask and two verdict masks."""
        return np.empty((2, self.work_size)), np.empty((3, self.work_size), dtype=bool)


def pair_plan(codes: np.ndarray, unknown: np.ndarray) -> PairPlan:
    """The plan for rows with the ``label_codes`` arrays ``codes`` and
    ``unknown``, in strips of ``PAIR_TILE_ROWS`` rows."""
    codes, unknown = np.asarray(codes), np.asarray(unknown, dtype=bool)
    values, group = np.unique(codes, return_inverse=True)
    group[unknown] = len(values)
    n, sizes = len(codes), np.bincount(group, minlength=len(values) + 1).tolist()
    strips = tuple(
        (s, min(s + PAIR_TILE_ROWS, end), end, g == len(values))
        for g, end in enumerate(accumulate(sizes))
        for s in range(end - sizes[g], end, PAIR_TILE_ROWS)
    )
    # a pair is positive when both rows share a label code and neither is
    # unknown, undecided when both are unknown, and negative otherwise
    positive = sum(size * size for size in sizes[:-1])
    # the row index makes every sort key distinct, so the default sort is stable
    order = np.argsort(group * n + np.arange(n))
    work_size = max(((e - s) * (n - s) for s, e, _, _ in strips), default=0)
    return PairPlan(order, strips, positive, n * n - positive - sizes[-1] ** 2, work_size)


def _log_sum(x: np.ndarray, work: np.ndarray) -> float:
    """The sum of log x over a 2-d array whose entries lie in about
    [CLAMP_EPS, 1]: the product of each block of 32 rows goes into a row of
    ``work``, which needs a row per block and ``x``'s width, and only those
    rows are logged. A product of 32 entries of at least about 1e-6 is at
    least about 1e-192, so none underflows."""
    blocks = -(-len(x) // 32)
    products = work[:blocks, : x.shape[1]]
    for block in range(blocks):
        np.multiply.reduce(x[32 * block : 32 * block + 32], axis=0, out=products[block])
    return float(np.log(products, out=products).sum())


def pair_similarity_loss(
    embeddings: np.ndarray,
    plan: PairPlan,
    lam: Optional[float] = None,
) -> tuple[float, np.ndarray, int, int]:
    """Training's pair term: binary cross-entropy over the selected ordered
    pairs of the clamped cosine similarities S of ``embeddings``, averaged
    over those pairs, and its gradient wrt the embeddings. Returns (value,
    gradient, positive and negative counts over all N x N ordered pairs).

    Among the rows ``plan`` was built for, a pair of equal labels, neither
    unknown, is positive (pushed toward S = 1), a pair of differing labels
    negative (toward S = 0), and an unknown x unknown pair has no verdict.
    Given ``lam``, unknown x unknown pairs above its upper threshold turn
    positive and those below its lower threshold negative (``thresholds``);
    a terminated schedule raises. The band width ``train`` adds to its total
    is not part of the value. Pairs pinned at the clamp pass no gradient.
    With no selected pair it warns and returns 0 and a zero gradient.

    The rows are taken in ``plan.order``, and the gradient is returned in
    the caller's order. S and the verdicts are symmetric, so strip [s, e)
    meets only the columns [s, N) and passes its derivatives to both. A
    known or background strip's verdicts are two column ranges: positive up
    to its group's end, negative after it. An unknown strip's pairs, unknown
    x unknown, are decided only by ``lam``'s thresholds, so it runs only with
    ``lam``. Every strip works in ``plan.work``; the value's logs are taken
    of products of the strip's pair terms (``_log_sum``)."""
    eps = CLAMP_EPS
    if lam is not None:
        upper, lower = thresholds(lam)
        if upper <= lower:
            raise RuntimeError(
                f"self-supervision terminated: upper threshold {upper:.4f} <= lower threshold {lower:.4f} at lam={lam}"
            )
    unit, norms = _unit_rows(embeddings)
    n = len(unit)
    if n != len(plan.order):
        raise ValueError(f"{n} embedding rows but a pair plan for {len(plan.order)}")
    unit, norms = unit[plan.order], norms[plan.order]
    # unknown strips run only with lam
    strips = [strip for strip in plan.strips if lam is not None or not strip[3]]
    acc = np.zeros_like(unit)
    # a call that runs no strip makes no buffers
    floats, masks = plan.work if strips else (None, None)
    total, positive, negative = 0.0, plan.positive, plan.negative
    for s, e, group_end, unknown in strips:
        r, p, size = e - s, group_end - s, (e - s) * (n - s)
        raw, other = floats[:, :size].reshape(2, r, n - s)
        active, scratch, below = masks[:, :size].reshape(3, r, n - s)
        # the strip [s, e) x [s, n): its r x r diagonal block holds both
        # orders of its pairs, every other entry stands for two ordered pairs
        np.matmul(unit[s:e], unit[s:].T, out=raw)
        # pinned at the clamp: no gradient
        np.logical_and(np.greater(raw, eps, out=active), np.less(raw, 1.0 - eps, out=scratch), out=active)
        S = np.clip(raw, eps, 1.0 - eps, out=raw)
        # q is -S on a positive pair and 1 - S on a negative one: the pair costs
        # -log x, x = |q| (1 if undecided: log 1 = 0), and its dS derivative is 1/q
        if unknown:
            above = np.greater(S, upper, out=scratch)
            positive += 2 * int(np.count_nonzero(above)) - int(np.count_nonzero(above[:, :r]))
            np.less(S, lower, out=below)
            negative += 2 * int(np.count_nonzero(below)) - int(np.count_nonzero(below[:, :r]))
            decided = np.logical_or(above, below, out=scratch)
            q = np.subtract(below, S, out=S)
            upstream = np.divide(np.logical_and(active, decided, out=active), q, out=other)
            # |q| < 1, so the maximum with the undecided mask sets x = 1 there
            x = np.maximum(np.abs(q, out=q), np.logical_not(decided, out=below), out=q)
        else:
            # column slices are strided: subtract on the whole strip, then copy the positive ones
            x = np.subtract(1.0, S, out=other)
            x[:, :p] = S[:, :p]
            upstream = np.divide(active, x, out=S)
            np.negative(upstream[:, :p], out=upstream[:, :p])
        acc[s:e] += upstream @ unit[s:]
        acc[e:] += upstream[:, r:].T @ unit[s:e]
        # the derivatives are spent: their buffer takes the products of x
        total -= 2.0 * _log_sum(x, upstream) - _log_sum(x[:, :r], upstream)
    if positive + negative == 0:
        _warnings.warn("similarity loss saw no selected pairs", RuntimeWarning)
        return 0.0, np.zeros_like(unit), 0, 0
    # d S_ij / d unit_i is unit_j less its component along unit_i: project acc
    # onto each row's tangent plane. One projection leaves a radial residue of
    # the rounding of |acc|, which can exceed rounding of the result where acc
    # is nearly radial; a second one takes it down to the result's own rounding
    grad = acc - (unit * acc).sum(axis=1)[:, None] * unit
    grad -= (unit * grad).sum(axis=1)[:, None] * unit
    grad /= norms[:, None]
    # S_ij and S_ji carry the same verdict, so each pair's gradient counts
    # twice; acc, no longer needed, takes the gradient in the caller's order
    scale = 1.0 / (positive + negative)
    acc[plan.order] = grad * (2.0 * scale)
    return total * scale, acc, positive, negative


def l1_regression_loss(
    predictions: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean absolute deviation over all coordinates, with the customary zero
    subgradient at exact zeros. Empty input costs nothing."""
    P = np.asarray(predictions, dtype=float)
    T = np.asarray(targets, dtype=float)
    if P.shape != T.shape:
        raise ValueError(f"shape mismatch: predictions {P.shape} vs targets {T.shape}")
    if P.size == 0:
        return 0.0, np.zeros_like(P)
    diff = P - T
    return float(np.abs(diff).mean()), np.sign(diff) / diff.size


@dataclass(frozen=True)
class LossWeights:
    """Weight of the pair-similarity term; classification and regression
    carry weight 1."""

    alpha_sim: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha_sim < 0:
            raise ValueError("alpha_sim must be non-negative")
        if not -inf < self.alpha_sim < inf:
            raise ValueError(f"alpha_sim must be finite, got {self.alpha_sim}")


def total_training_loss(
    classification: float,
    regression: float,
    similarity: float,
    weights: LossWeights = LossWeights(),
) -> float:
    """Sum of the three trainable terms, the pair term weighted by ``alpha_sim``."""
    return classification + regression + weights.alpha_sim * similarity
