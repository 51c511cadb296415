"""What the traced run wraps, and the per-layer metrics it derives.

Layers are the ``ucowod`` modules. Every target names the module (or class)
its *caller* reads the function from: the CLI reads ``train`` and
``evaluate`` from its own namespace, ``harness`` reads the loss functions,
``nms`` and ``select_pseudo_labels`` from its own, and ``self_similarity_loss``
reads ``similarity_loss`` from ``ucowod.losses``. Span names are
``<layer>.<function>``; the per-layer metrics are ``<span>.s`` (self time,
seconds) and ``<span>.calls``, plus the work counts the hooks below add.
"""

from __future__ import annotations

import os

from tracing import Target, Tracer, layer_totals, self_times

ROOT_SPAN = "cli.main"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _rows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("harness.rows", len(result.labels))


def _pairs(tracer: Tracer, args, kwargs, result) -> None:
    positive = int(result.positive.sum())
    negative = int(result.negative.sum())
    tracer.pending.append((positive, negative, result.positive.size))


def _train(tracer: Tracer, args, kwargs, result) -> None:
    """Attribute the pair verdicts of each epoch to the phase the training
    history records for it (pair_labels runs once per epoch, in order)."""
    phases = [stats.phase for stats in result.history]
    for phase in phases:
        tracer.add(f"harness.epochs.{phase}")
    if len(tracer.pending) == len(phases):
        for phase, (positive, negative, cells) in zip(phases, tracer.pending):
            tracer.add(f"losses.pairs.positive.{phase}", positive)
            tracer.add(f"losses.pairs.negative.{phase}", negative)
            tracer.add(f"losses.pairs.undecided.{phase}", cells - positive - negative)
            tracer.add("losses.pairs.selected", positive + negative)
            tracer.add("losses.pairs.cells", cells)
    tracer.pending.clear()


def _detect(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("harness.detections", len(result[0]))


def _pseudo(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("pseudo_label.proposals", len(_arg(args, kwargs, 0, "proposals")))
    tracer.add("pseudo_label.selected", len(result))


def _refine(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("refinement.points", len(_arg(args, kwargs, 0, "embeddings")))
    tracer.add("refinement.k_chosen", int(_arg(args, kwargs, 1, "n_clusters")))
    tracer.add("refinement.steps_run", result.steps_run)


def _written(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("io.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _read(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("io.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


IO_WRITERS = ("save_dataset", "save_ground_truth", "save_head", "save_detections", "save_report")
IO_READERS = ("load_dataset", "load_ground_truth", "load_head", "load_detections")

TARGETS = (
    Target("ucowod.cli", "generate_dataset", "harness.generate_dataset"),
    Target("ucowod.cli", "train", "harness.train", after=_train),
    Target("ucowod.cli", "refine_pipeline", "harness.refine_pipeline"),
    Target("ucowod.cli", "evaluate", "metrics.evaluate"),
    Target("ucowod.harness", "build_training_rows", "harness.build_training_rows", after=_rows),
    Target("ucowod.harness", "detect_with_embeddings", "harness.detect", after=_detect),
    Target("ucowod.harness.ToyHead", "forward", "harness.head.forward"),
    Target("ucowod.harness.ToyHead", "gradients", "harness.head.gradients"),
    Target("ucowod.harness.ToyHead", "apply_gradients", "harness.head.apply_gradients"),
    Target("ucowod.harness", "classification_loss", "losses.classification_loss"),
    Target("ucowod.harness", "l1_regression_loss", "losses.l1_regression_loss"),
    Target("ucowod.harness", "similarity_loss", "losses.similarity_loss"),
    Target("ucowod.losses", "similarity_loss", "losses.similarity_loss"),
    Target("ucowod.harness", "cosine_similarity_grad", "losses.cosine_similarity_grad"),
    Target("ucowod.losses.SimilarityState", "update_embeddings", "losses.similarity_matrix"),
    Target("ucowod.losses.SimilarityState", "pair_labels", "losses.pair_labels", after=_pairs),
    Target("ucowod.harness", "select_pseudo_labels", "pseudo_label.select_pseudo_labels", after=_pseudo),
    Target("ucowod.harness", "select_cluster_count", "refinement.select_cluster_count"),
    Target("ucowod.harness", "refine", "refinement.refine", after=_refine),
    Target("ucowod.refinement", "kmeans_init", "refinement.kmeans_init"),
    Target("ucowod.refinement", "silhouette_score", "refinement.silhouette_score"),
    Target("ucowod.refinement", "soft_assignment", "refinement.soft_assignment", count_only=True),
    Target("ucowod.metrics", "match_known_detections", "metrics.match_known_detections"),
    Target("ucowod.metrics", "absolute_open_set_error", "metrics.absolute_open_set_error"),
    Target("ucowod.metrics", "average_precision", "metrics.average_precision"),
    Target("ucowod.metrics", "uc_map", "metrics.uc_map"),
    Target("ucowod.metrics", "uc_recall", "metrics.uc_recall"),
    Target("ucowod.metrics", "hungarian_assign", "metrics.hungarian_assign"),
    Target("ucowod.harness", "nms", "metrics.nms"),
    Target("ucowod.pseudo_label", "nms", "metrics.nms"),
    Target("ucowod.harness", "iou", "core.iou", count_only=True),
    Target("ucowod.metrics", "iou", "core.iou", count_only=True),
    Target("ucowod.pseudo_label", "iou", "core.iou", count_only=True),
    *(Target("ucowod.io", name, f"io.{name}", after=_written) for name in IO_WRITERS),
    *(Target("ucowod.io", name, f"io.{name}", after=_read) for name in IO_READERS),
)

SPAN_NAMES = sorted({t.name for t in TARGETS if not t.count_only} | {ROOT_SPAN})
CALL_COUNTS = sorted({t.name + ".calls" for t in TARGETS if t.count_only})
WORK_COUNTS = (
    "harness.rows",
    "harness.detections",
    *(f"harness.epochs.{phase}" for phase in ("supervised", "self", "post")),
    *(
        f"losses.pairs.{verdict}.{phase}"
        for verdict in ("positive", "negative", "undecided")
        for phase in ("supervised", "self", "post")
    ),
    "pseudo_label.proposals",
    "pseudo_label.selected",
    "refinement.points",
    "refinement.k_chosen",
    "refinement.steps_run",
    "io.bytes_written",
    "io.bytes_read",
)


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced iteration. Layers the workload
    never reaches read zero."""
    totals = layer_totals(tracer.spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        entry = totals.get(name, {"s": 0.0, "calls": 0})
        out[f"{name}.s"] = entry["s"]
        out[f"{name}.calls"] = entry["calls"]
    for name in (*CALL_COUNTS, *WORK_COUNTS):
        out[name] = tracer.counts.get(name, 0)
    cells = tracer.counts.get("losses.pairs.cells", 0)
    out["losses.pairs.selected_frac"] = tracer.counts.get("losses.pairs.selected", 0) / cells if cells else 0.0
    own, overlap = self_times(tracer.spans)
    out["trace.self_sum_s"] = sum(own)
    out["trace.thread_overlap_s"] = overlap
    return out


COUNT_KEYS = (*CALL_COUNTS, *WORK_COUNTS, "losses.pairs.selected_frac")


def work_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The exact work counts of an iteration: everything that must repeat
    bit for bit at one seed (span call counts included, self times not)."""
    return {k: v for k, v in metrics.items() if k in COUNT_KEYS or k.endswith(".calls")}
