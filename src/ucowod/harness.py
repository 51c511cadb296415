"""Synthetic end-to-end harness.

Scenes live in feature space: each class owns a prototype vector, every
object is a box plus a noisy copy of its class prototype, and proposals are
the object boxes, jittered copies, and off-object background boxes with
objectness tracking their overlap. A scene holds its proposals as
row-aligned arrays: row i of its boxes, objectness and features is proposal
i. Known objects are annotated everywhere;
unknown objects are annotated only in test scenes, so training must discover
them through pseudo-labeling.

``train`` fits a small two-layer head with plain full-batch gradient
descent on the combined objective, switching from label-supervised to
self-supervised pair similarity after a warm-up. ``detect`` returns one
``DetectionTable`` for all scenes; ``refine_pipeline`` then clusters the
embeddings of its unknown-slot rows and sets their class ids by cluster.
``train_and_score`` is the generate, train, detect and evaluate chain in one
call.

Fixed for every run, so kept out of ``RunConfig``: ``IMAGE_SIZE``-pixel
scenes, ``JITTER_PER_OBJECT`` jittered proposals per object and
``BACKGROUND_PER_SCENE`` background proposals per scene, a ``HIDDEN_DIM``-unit
head with standard-normal initial weights and weight decay ``WEIGHT_DECAY``,
training targets at IoU ``TARGET_IOU``, lambda starting at 0, detection NMS
at IoU ``NMS_THRESHOLD``, and scoring at the ``EvalConfig`` defaults.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass, field
from math import inf
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .core import Box, ClassLabel, DetectionTable, GroundTruthObject, iou, pairwise_iou
from .losses import (
    LossWeights,
    band_width,
    classification_loss_from_plan,
    classification_plan,
    l1_regression_loss,
    pair_plan,
    pair_similarity_loss,
    schedule_terminated,
    softmax,
    total_training_loss,
    update_lambda,
)
from .metrics import EvalReport, evaluate, suppress
from .pseudo_label import UlpConfig, select_pseudo_labels
from .refinement import RefineResult, refine, select_cluster_count

if TYPE_CHECKING:
    from concurrent.futures import Executor

HIDDEN_DIM = 128
# rows from which train runs the pair kernel on two lanes: below it the
# lanes' hand-offs cost more than the second core gives back
LANE_ROWS = 1200
IMAGE_SIZE = 100.0
JITTER_PER_OBJECT = 2
BACKGROUND_PER_SCENE = 3
NMS_THRESHOLD = 0.5
TARGET_IOU = 0.5
WEIGHT_DECAY = 1e-3


@dataclass(frozen=True)
class RunConfig:
    """What a pipeline run varies, seeds included."""

    seed: int = 0
    known_classes: int = 3
    unknown_slots: int = 8
    unknown_gt_classes: int = 3
    feature_dim: int = 16
    train_scenes: int = 24
    test_scenes: int = 12
    min_objects: int = 3
    max_objects: int = 6
    feature_noise: float = 0.05
    ulp: UlpConfig = field(default_factory=UlpConfig)
    weights: LossWeights = field(default_factory=LossWeights)
    eta: float = 0.01
    epochs: int = 160
    warmup_epochs: Optional[int] = None
    learning_rate: float = 1.0
    refine_clusters: Optional[int] = None

    def __post_init__(self) -> None:
        if self.known_classes < 1:
            raise ValueError("need at least one known class")
        if self.train_scenes < 1:
            raise ValueError("need at least one training scene")
        if self.test_scenes < 1:
            raise ValueError("need at least one test scene")
        if self.unknown_slots < 0 or self.unknown_gt_classes < 0:
            raise ValueError("unknown counts must be non-negative")
        if self.feature_dim < self.known_classes + self.unknown_gt_classes:
            raise ValueError(
                "feature_dim must be at least known_classes + unknown_gt_classes "
                "so every class gets a separated prototype"
            )
        if self.min_objects < 1 or self.max_objects < self.min_objects:
            raise ValueError("object count range is invalid")
        if self.feature_noise < 0:
            raise ValueError(f"feature_noise must be non-negative, got {self.feature_noise}")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.warmup_epochs is not None and not (0 <= self.warmup_epochs <= self.epochs):
            raise ValueError("warmup must lie within the epoch budget")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.eta < 0:
            raise ValueError(f"eta must be non-negative, got {self.eta}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.refine_clusters is not None and not (1 <= self.refine_clusters <= self.unknown_slots):
            raise ValueError(
                f"refine_clusters must be null or lie in [1, {self.unknown_slots}], got {self.refine_clusters}"
            )
        # no comparison holds for NaN, so none above rejects it, and +inf meets every lower bound
        for name in ("feature_noise", "eta", "learning_rate"):
            if not -inf < getattr(self, name) < inf:
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def resolved_warmup(self) -> int:
        """Supervised warm-up length; defaults to half the epochs."""
        return self.epochs // 2 if self.warmup_epochs is None else self.warmup_epochs

    def head_width(self) -> int:
        return self.known_classes + self.unknown_slots + 1


@dataclass
class SyntheticScene:
    """One image worth of synthetic data: row i of ``boxes`` ((n, 4)
    ``Box.array`` rows), ``objectness`` (in [0, 1]) and ``features`` is proposal i."""

    image_id: int
    boxes: np.ndarray
    objectness: np.ndarray
    gts: list[GroundTruthObject]
    features: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.boxes) == len(self.objectness) == len(self.features):
            raise ValueError("each proposal needs exactly one box, objectness and feature row")


@dataclass
class SyntheticDataset:
    train: list[SyntheticScene]
    test: list[SyntheticScene]
    config: RunConfig

    def test_ground_truth(self) -> list[GroundTruthObject]:
        return [g for scene in self.test for g in scene.gts]


def class_prototypes(config: RunConfig) -> np.ndarray:
    """Unit-separated feature prototypes, one per class (known then
    unknown); scaled axis vectors give exact pairwise distance 1."""
    n_classes = config.known_classes + config.unknown_gt_classes
    prototypes = np.zeros((n_classes, config.feature_dim))
    np.fill_diagonal(prototypes[:, :n_classes], 1.0 / np.sqrt(2.0))
    return prototypes


def _sample_box(rng: np.random.Generator, placed: list[Box]) -> Box:
    """Random box overlapping already-placed boxes by at most 0.1 IoU; after
    100 attempts the least-overlapping candidate wins."""
    best = None
    best_overlap = np.inf
    for _ in range(100):
        # an attempt's four uniforms in one draw, each mapped as
        # Generator.uniform maps its draw: low + (high - low) * u
        u_w, u_h, u_cx, u_cy = rng.random(4).tolist()
        w = 8.0 + (16.0 - 8.0) * u_w
        h = 8.0 + (16.0 - 8.0) * u_h
        cx = w / 2.0 + (IMAGE_SIZE - w / 2.0 - w / 2.0) * u_cx
        cy = h / 2.0 + (IMAGE_SIZE - h / 2.0 - h / 2.0) * u_cy
        box = Box(cx, cy, w, h)
        overlap = max((iou(box, other) for other in placed), default=0.0)
        if overlap <= 0.1:
            return box
        if overlap < best_overlap:
            best, best_overlap = box, overlap
    return best


def _build_scene(
    rng: np.random.Generator,
    image_id: int,
    object_classes: Sequence[int],
    config: RunConfig,
    prototypes: np.ndarray,
    labeled_unknowns: bool,
) -> SyntheticScene:
    boxes: list[Box] = []
    for _ in object_classes:
        boxes.append(_sample_box(rng, boxes))

    gts: list[GroundTruthObject] = []
    for class_id, box in zip(object_classes, boxes):
        if class_id < config.known_classes:
            gts.append(GroundTruthObject(image_id, ClassLabel.known(class_id), box))
        elif labeled_unknowns:
            gts.append(GroundTruthObject(image_id, ClassLabel.unknown(class_id), box))

    rows, objectness, features = [], [], []  # each proposal's (cx, cy, w, h), objectness and feature row

    def add(box: Box, score: float, prototype: np.ndarray) -> None:
        rows.append((box.cx, box.cy, box.w, box.h))
        objectness.append(min(max(score, 0.0), 1.0))
        features.append(prototype + config.feature_noise * rng.standard_normal(config.feature_dim))

    for class_id, box in zip(object_classes, boxes):
        prototype = prototypes[class_id]
        add(box, 0.85 + 0.1 * rng.random(), prototype)
        for _ in range(JITTER_PER_OBJECT):
            jittered = Box(
                box.cx + rng.uniform(-0.15, 0.15) * box.w,
                box.cy + rng.uniform(-0.15, 0.15) * box.h,
                box.w * rng.uniform(0.9, 1.1),
                box.h * rng.uniform(0.9, 1.1),
            )
            add(jittered, iou(jittered, box) * (0.8 + 0.2 * rng.random()), prototype)

    background_prototype = np.zeros(config.feature_dim)
    for _ in range(BACKGROUND_PER_SCENE):
        box = _sample_box(rng, boxes)
        add(box, 0.02 + 0.18 * rng.random(), background_prototype)

    return SyntheticScene(image_id, np.array(rows), np.array(objectness), gts, np.array(features))


def _split_class_sequence(
    rng: np.random.Generator, counts: Sequence[int], n_classes: int
) -> list[list[int]]:
    """Object classes for each scene of a split, shuffled; every class
    occurs at least once when the split has at least as many objects as
    there are classes."""
    total = int(sum(counts))
    repeats = -(-total // n_classes)
    sequence = np.tile(np.arange(n_classes), repeats)[:total]
    rng.shuffle(sequence)
    out = []
    cursor = 0
    for count in counts:
        out.append([int(c) for c in sequence[cursor : cursor + count]])
        cursor += count
    return out


def generate_dataset(config: RunConfig) -> SyntheticDataset:
    """Sample the train and test scene lists. Training scenes leave unknown
    objects unannotated; test scenes annotate everything."""
    rng = np.random.default_rng(config.seed)
    prototypes = class_prototypes(config)
    n_classes = len(prototypes)

    splits: dict[str, list[SyntheticScene]] = {}
    next_image_id = 0
    for name, n_scenes, labeled_unknowns in (
        ("train", config.train_scenes, False),
        ("test", config.test_scenes, True),
    ):
        counts = [int(rng.integers(config.min_objects, config.max_objects + 1)) for _ in range(n_scenes)]
        per_scene_classes = _split_class_sequence(rng, counts, n_classes)
        scenes = []
        for classes in per_scene_classes:
            scenes.append(_build_scene(rng, next_image_id, classes, config, prototypes, labeled_unknowns))
            next_image_id += 1
        splits[name] = scenes
    return SyntheticDataset(train=splits["train"], test=splits["test"], config=config)


def with_ones(features: np.ndarray) -> np.ndarray:
    """The head's input rows, [features | 1]: their last column meets the
    bias row of ``ToyHead.w1``."""
    return np.concatenate((features, np.ones((len(features), 1))), axis=1)


@dataclass
class HeadActivations:
    """The head's activations on N rows: ``hidden``, the rectified hidden
    layer with a last column of ones, and ``outputs``, the logits and box
    deltas side by side."""

    hidden: np.ndarray
    outputs: np.ndarray

    @classmethod
    def empty(cls, rows: int, hidden_dim: int, n_logits: int) -> "HeadActivations":
        return cls(np.ones((rows, hidden_dim + 1)), np.empty((rows, n_logits + 4)))

    @property
    def logits(self) -> np.ndarray:
        return self.outputs[:, :-4]

    @property
    def deltas(self) -> np.ndarray:
        return self.outputs[:, -4:]


@dataclass
class HiddenGradients:
    """The N x hidden work arrays of ``ToyHead.gradients``: the hidden
    layer's gradient and the rectifier's mask."""

    hidden: np.ndarray
    active: np.ndarray

    @classmethod
    def empty(cls, rows: int, hidden_dim: int) -> "HiddenGradients":
        return cls(np.empty((rows, hidden_dim)), np.empty((rows, hidden_dim), dtype=bool))


@dataclass
class ToyHead:
    """Two-layer embedding head: a shared hidden layer with a rectifier, then
    one output layer of logits (one per known class, unknown slot, and
    background) and four box deltas. Each layer is one matrix whose last row
    is its bias: ``w1`` is (F + 1) x H and ``w2`` (H + 1) x (L + 4), logits
    in columns [0, L)."""

    w1: np.ndarray
    w2: np.ndarray

    @classmethod
    def create(cls, feature_dim: int, hidden_dim: int, n_logits: int, seed: int = 0) -> "ToyHead":
        """Standard-normal weights, zero hidden and box biases and logit
        biases of scale 0.01, drawn as the hidden weights, the logit weights,
        the logit biases and the box weights, in turn."""
        rng = np.random.default_rng(seed)
        w1, w2 = np.zeros((feature_dim + 1, hidden_dim)), np.zeros((hidden_dim + 1, n_logits + 4))
        w1[:-1] = rng.standard_normal((feature_dim, hidden_dim))
        w2[:-1, :n_logits] = rng.standard_normal((hidden_dim, n_logits))
        w2[-1, :n_logits] = 0.01 * rng.standard_normal(n_logits)
        w2[:-1, n_logits:] = rng.standard_normal((hidden_dim, 4))
        return cls(w1, w2)

    @property
    def n_logits(self) -> int:
        return self.w2.shape[1] - 4

    def forward(self, inputs: np.ndarray, out: Optional[HeadActivations] = None) -> HeadActivations:
        """The activations on ``inputs`` (``with_ones`` rows), written into
        ``out`` (arrays of this call's shapes) when it is given, and
        returned."""
        if out is None:
            out = HeadActivations.empty(len(inputs), self.w1.shape[1], self.n_logits)
        hidden = out.hidden[:, :-1]
        np.maximum(np.matmul(inputs, self.w1, out=hidden), 0.0, out=hidden)
        np.matmul(out.hidden, self.w2, out=out.outputs)
        return out

    def gradients(
        self, inputs: np.ndarray, acts: HeadActivations, grad_outputs: np.ndarray, work: HiddenGradients
    ) -> tuple[np.ndarray, np.ndarray]:
        """The gradients of ``w1`` and ``w2``, given that of ``acts.outputs``;
        the N x hidden intermediates go into ``work``."""
        grad_hidden = np.matmul(grad_outputs, self.w2[:-1].T, out=work.hidden)
        # the rectifier passes gradient where its output is positive
        np.multiply(grad_hidden, np.greater(acts.hidden[:, :-1], 0.0, out=work.active), out=grad_hidden)
        return inputs.T @ grad_hidden, acts.hidden.T @ grad_outputs

    def apply_gradients(self, grads: tuple[np.ndarray, np.ndarray], learning_rate: float, weight_decay: float) -> None:
        """One descent step, in place, on ``w1`` and ``w2`` and on their
        gradients; weight decay applies to the weight rows, not the bias rows."""
        for weights, grad in zip((self.w1, self.w2), grads):
            grad[:-1] += weight_decay * weights[:-1]
            weights -= learning_rate * grad


@dataclass(frozen=True)
class TrainingRows:
    """Flattened training batch: proposal features, their label codes and
    box-delta targets. ``labels`` holds each row's class id, the first
    unknown slot (``known_classes``) for a pseudo-labelled row and -1 for a
    background row, whose delta target is zero and unused: the codes of
    ``losses.label_codes``."""

    features: np.ndarray
    labels: np.ndarray
    delta_targets: np.ndarray
    n_pseudo: int


def build_training_rows(dataset: SyntheticDataset, config: RunConfig) -> TrainingRows:
    """Assign every training proposal a target: the best-overlapping known
    box or pseudo-labelled proposal at IoU ``TARGET_IOU``, else background.
    Pseudo-labelled proposals carry the first unknown slot's code."""
    labels, deltas = [], []
    n_pseudo = 0
    for scene in dataset.train:
        known = [g for g in scene.gts if g.label.is_known]
        known_boxes, boxes = Box.array([g.box for g in known]), scene.boxes
        pseudo = np.empty(0, dtype=int)
        if config.unknown_slots > 0:
            pseudo = select_pseudo_labels(boxes, scene.objectness, known_boxes, config.ulp)
        n_pseudo += len(pseudo)
        # a code from known_classes on is an unknown row's, so a known id there would pass for one
        known_ids = [g.label.class_id for g in known]
        if max(known_ids, default=-1) >= config.known_classes:
            raise ValueError(f"known id {max(known_ids)} out of range [0, {config.known_classes})")
        # one code per target box, then background's, which a miss takes
        candidates = np.array(known_ids + [config.known_classes] * len(pseudo) + [-1])
        targets = np.concatenate((known_boxes, boxes[pseudo]))
        overlap = pairwise_iou(boxes, targets)
        # argmax takes the first best candidate, as a loop keeping only a strictly better one would
        best = overlap.argmax(axis=1) if len(targets) else np.zeros(len(boxes), dtype=int)
        hit = overlap.max(axis=1, initial=0.0) >= TARGET_IOU
        labels.append(candidates[np.where(hit, best, -1)])
        scene_deltas = np.zeros(boxes.shape)
        scene_deltas[hit] = targets[best[hit]] - boxes[hit]
        deltas.append(scene_deltas)
    return TrainingRows(
        features=np.concatenate([scene.features for scene in dataset.train]),
        labels=np.concatenate(labels),
        delta_targets=np.concatenate(deltas),
        n_pseudo=n_pseudo,
    )


@dataclass(frozen=True)
class EpochStats:
    """One training epoch. ``positive`` and ``negative`` count pair verdicts over
    all N x N ordered pairs, diagonal included; the rest are undecided.
    ``pair`` is the pair kernel's value and ``penalty`` the band width of
    lambda, 0 outside the self-supervised phase: ``total`` carries it and
    ``model_loss`` does not."""

    epoch: int
    phase: str
    classification: float
    regression: float
    pair: float
    penalty: float
    model_loss: float
    total: float
    lam: float
    positive: int
    negative: int


@dataclass
class TrainResult:
    head: ToyHead
    history: tuple[EpochStats, ...]
    rows: TrainingRows
    final_lambda: float


@functools.cache
def openblas_threads() -> Optional[tuple]:
    """The thread-count getter and setter of the OpenBLAS that numpy bundles
    (``numpy.libs/libscipy_openblas64_*.so``, already loaded with numpy), or
    None where numpy runs another BLAS build."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get_threads, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@contextlib.contextmanager
def pair_lane(rows: int) -> Iterator[Optional[Executor]]:
    """Pin numpy's OpenBLAS to one thread for the block, and yield the pair
    kernel's second lane for a batch of ``rows`` rows: an executor of one
    worker thread from ``LANE_ROWS`` rows on, None below. On exit, also by
    an exception, join the worker and restore the thread count. Where
    numpy's OpenBLAS is not found, pin nothing and yield None."""
    threads = openblas_threads()
    if threads is None:
        yield None
        return
    get_threads, set_threads = threads
    previous = get_threads()
    set_threads(1)
    try:
        if rows < LANE_ROWS:
            yield None
        else:
            # imported here, not at the top, to keep it out of the stages
            # and the batches that run no lane: it costs 3 ms and 0.5 MB
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(1, thread_name_prefix="pair-lane") as lane:
                yield lane
    finally:
        set_threads(previous)


def train(config: RunConfig, dataset: SyntheticDataset) -> TrainResult:
    """Full-batch gradient descent on the combined objective.

    The pair-similarity term runs label-supervised for the warm-up epochs,
    then self-supervised with one lambda update per epoch until the
    threshold schedule terminates, after which it falls back to the
    label-supervised pairs. What depends on the labels alone is built once,
    before the first epoch, in O(N) memory, from the rows' label codes: the
    unknown rows (codes from ``known_classes`` on), the rows with a box
    target (codes from 0 on) and their targets, the ``classification_plan``
    and the ``pair_plan``. So are the head's input rows, activations and
    gradient work arrays, and the gradient of its outputs, into whose columns
    each epoch writes the classification gradient plus the weighted pair
    gradient, and the box rows' L1 gradient. With the pair plan's buffers,
    no epoch allocates an N x ``HIDDEN_DIM`` or strip-sized array. The pair term comes
    from ``pair_similarity_loss``: one visit per unordered pair, in strips
    of ``PAIR_TILE_ROWS`` rows sorted by label group; outside the
    self-supervised phase it skips the unknown x unknown pairs, which no
    label decides, but its counts cover all N x N ordered pairs. In the
    self-supervised phase ``total`` adds the band width of lambda to the
    pair term, which ``model_loss`` leaves out (it carries no parameter
    gradient); divergence to a non-finite ``total`` raises with the epoch
    index. A training split with no proposals raises before any epoch.

    All of training runs under ``pair_lane``: numpy's OpenBLAS on one
    thread, and from ``LANE_ROWS`` rows on its second core given to the pair
    kernel's second lane, which takes strips from the back while the caller
    takes them from the front. Every GEMM then sums in one order whatever
    ``OPENBLAS_NUM_THREADS`` says, and the lanes give the one-lane kernel's
    bits, so the trained head is the same with or without them. The thread
    count is restored and the worker joined when ``train`` returns or
    raises; a BLAS build other than numpy's bundled OpenBLAS is left as it
    is and trains on one lane.
    """
    # every proposal of the training split is a training row
    proposals = sum(len(scene.boxes) for scene in dataset.train)
    with pair_lane(proposals) as lane:
        if not proposals:
            raise ValueError("the training split holds no proposals")
        rows = build_training_rows(dataset, config)
        unknown, has_box_target = rows.labels >= config.known_classes, rows.labels >= 0
        cls_plan = classification_plan(rows.labels, unknown, config.known_classes, config.head_width())
        pairs = pair_plan(rows.labels, unknown)
        box_targets = rows.delta_targets[has_box_target]
        head = ToyHead.create(config.feature_dim, HIDDEN_DIM, config.head_width(), seed=config.seed)
        n, inputs = len(rows.labels), with_ones(rows.features)
        acts, work = HeadActivations.empty(n, HIDDEN_DIM, head.n_logits), HiddenGradients.empty(n, HIDDEN_DIM)
        # the gradient of the head's outputs; rows without a box target keep a
        # zero delta gradient in every epoch
        grad_outputs = np.zeros_like(acts.outputs)
        grad_logits, grad_deltas = grad_outputs[:, :-4], grad_outputs[:, -4:]
        lam = 0.0
        warmup = config.resolved_warmup()
        history: list[EpochStats] = []

        for epoch in range(config.epochs):
            head.forward(inputs, acts)
            cls_value, grad_cls = classification_loss_from_plan(acts.logits, cls_plan)

            reg_value, grad_selected = l1_regression_loss(acts.deltas[has_box_target], box_targets)
            grad_deltas[has_box_target] = grad_selected

            self_supervised = epoch >= warmup and not schedule_terminated(lam)
            pair_value, grad_sim, positive, negative = pair_similarity_loss(
                acts.logits, pairs, lam if self_supervised else None, lane
            )
            penalty = band_width(lam) if self_supervised else 0.0
            phase = "self" if self_supervised else "supervised" if epoch < warmup else "post"
            model_loss = total_training_loss(cls_value, reg_value, pair_value, config.weights)
            total = total_training_loss(cls_value, reg_value, pair_value + penalty, config.weights)
            if not np.isfinite(total):
                raise RuntimeError(f"training diverged: non-finite loss at epoch {epoch}")
            history.append(
                EpochStats(
                    epoch, phase, cls_value, reg_value, pair_value, penalty, model_loss, total, lam, positive, negative
                )
            )

            np.add(grad_cls, np.multiply(grad_sim, config.weights.alpha_sim, out=grad_logits), out=grad_logits)
            head.apply_gradients(head.gradients(inputs, acts, grad_outputs, work), config.learning_rate, WEIGHT_DECAY)
            if self_supervised:
                lam = update_lambda(lam, config.eta)

    return TrainResult(head=head, history=tuple(history), rows=rows, final_lambda=lam)


def detect_with_embeddings(
    head: ToyHead, scenes: Sequence[SyntheticScene], config: RunConfig
) -> tuple[DetectionTable, np.ndarray]:
    """Run the head over scenes and emit per-class suppressed detections.

    Each proposal is classified by its argmax slot (background rows are
    dropped), scored by the softmax probability, and its box is shifted by
    the predicted deltas. A scene's detections come out by slot, then by
    descending score, then by proposal row. Returns the detections plus
    their embedding rows, aligned index for index. The head runs and
    suppression groups once per scene: one forward over all scenes moves
    the logits in their last bits.
    """
    image_ids: list[int] = []
    # each scene's kept class ids, boxes, scores and logits, after an empty first block
    columns = [(np.empty(0, dtype=int), np.empty((0, 4)), np.empty(0), np.empty((0, head.n_logits)))]
    background = head.n_logits - 1
    for scene in scenes:
        if not len(scene.boxes):
            continue
        acts = head.forward(with_ones(scene.features))
        probs = softmax(acts.logits, axis=1)
        predicted, scores = probs.argmax(axis=1), probs.max(axis=1)
        boxes = scene.boxes + acts.deltas
        boxes[:, 2:] = np.maximum(boxes[:, 2:], 1e-3)
        rows = np.flatnonzero(predicted != background)
        kept = rows[suppress(predicted[rows], scores[rows], boxes[rows], NMS_THRESHOLD)]
        image_ids += [scene.image_id] * len(kept)
        columns.append((predicted[kept], boxes[kept], scores[kept], acts.logits[kept]))
    class_ids, boxes, scores, embeddings = map(np.concatenate, zip(*columns))
    return DetectionTable(config.known_classes, image_ids, class_ids, boxes, scores), embeddings


def detect(head: ToyHead, scenes: Sequence[SyntheticScene], config: RunConfig) -> DetectionTable:
    return detect_with_embeddings(head, scenes, config)[0]


def train_and_score(config: RunConfig) -> tuple[SyntheticDataset, TrainResult, EvalReport]:
    """Generate a dataset, train on its train split and score the raw
    detections on its test split: the chain every driver script runs."""
    dataset = generate_dataset(config)
    trained = train(config, dataset)
    detections = detect(trained.head, dataset.test, config)
    return dataset, trained, evaluate(dataset.test_ground_truth(), detections)


@dataclass
class RefineOutcome:
    """Detections after cluster refinement, alongside the clustering
    itself. ``detections`` is the post-refinement output (relabeled and
    re-suppressed); ``refined_indices`` lists its unknown rows."""

    detections: DetectionTable
    refined_indices: list[int]
    result: RefineResult
    n_clusters: int


def refine_pipeline(head: ToyHead, dataset: SyntheticDataset, config: RunConfig) -> RefineOutcome:
    """Cluster the embeddings of unknown-slot test detections and relabel
    each detection with its cluster's unknown id.

    Embeddings are length-normalized before clustering (the similarity
    loss shapes angles, not norms). The cluster count defaults to the best
    mean silhouette over 2..unknown_slots, so a class split across slots
    can be consolidated and a merged slot pulled apart. Relabeling can
    land duplicate boxes in one class, so per-class suppression runs
    again afterwards, once over the table with one group per image and
    class. Refinement runs ``refine``'s defaults: 200 steps at
    step size 0.1, a target update every 10 steps, embeddings and
    centroids both moving. Raises when nothing was classified as unknown
    (lower the pseudo-label objectness floor or add unknown slots).
    """
    detections, embeddings = detect_with_embeddings(head, dataset.test, config)
    unknown = np.flatnonzero(detections.class_ids >= config.known_classes)
    if not len(unknown):
        raise RuntimeError(
            "refinement found no detections in unknown slots; lower the "
            "pseudo-label objectness floor (ulp.delta) or add unknown slots"
        )
    points = embeddings[unknown]
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    points = points / np.maximum(norms, 1e-12)

    n_clusters, centroids = config.refine_clusters, None
    if n_clusters is None:
        # the sweep's k-means fit of the chosen count is where refine starts
        n_clusters, centroids = select_cluster_count(points, config.unknown_slots, seed=config.seed)
    n_clusters = min(n_clusters, len(unknown))

    result = refine(points, n_clusters, seed=config.seed, centroids=centroids)
    class_ids = detections.class_ids.copy()
    class_ids[unknown] = config.known_classes + result.assignments
    # image ids are unbounded JSON integers, so each gets a small code for its group
    codes: dict[int, int] = {}
    scene_codes = np.array([codes.setdefault(image_id, len(codes)) for image_id in detections.image_ids], dtype=int)
    groups = scene_codes * config.head_width() + class_ids
    kept = np.sort(suppress(groups, detections.scores, detections.boxes, NMS_THRESHOLD))
    image_ids, class_ids = [detections.image_ids[row] for row in kept.tolist()], class_ids[kept]
    final = DetectionTable(config.known_classes, image_ids, class_ids, detections.boxes[kept], detections.scores[kept])
    return RefineOutcome(final, np.flatnonzero(class_ids >= config.known_classes).tolist(), result, n_clusters)
