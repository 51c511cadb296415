"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained (it generates everything it needs inside its own
timer) so the asserted runtime bounds reflect the full cost of the check.
Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
guarantee.
"""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest

from ucowod import (
    Box,
    ClassLabel,
    Detection,
    GroundTruthObject,
    LossWeights,
    RunConfig,
    UlpConfig,
    band_width,
    classification_loss_from_plan,
    classification_plan,
    detect,
    evaluate,
    generate_dataset,
    hungarian_assign,
    iou,
    kl_divergence,
    kl_loss,
    label_codes,
    pair_plan,
    pair_similarity_loss,
    refine,
    refine_pipeline,
    schedule_terminated,
    select_pseudo_labels,
    soft_assignment,
    steps_to_termination,
    target_distribution,
    thresholds,
    train,
    uc_map,
    uc_recall,
    update_lambda,
)
from ucowod.cli import main as cli_main

from reference import (
    ap_ref,
    best_permutation_accuracy,
    central_difference,
    match_flags_ref,
    relative_error,
)


def test_acceptance_1_unknown_metrics_equal_label_based_scoring():
    """With true class ids on every unknown detection, the correspondence-
    free unknown-class metrics reproduce ordinary label-based mAP and recall
    exactly (within 1e-9), in under a second."""
    start = time.monotonic()
    for seed in range(30):
        g = np.random.default_rng(seed)
        gts, dets = [], []
        for image_id in range(3):
            for slot in range(4):
                class_id = int(g.integers(3, 6))  # true unknown classes
                box = Box(25.0 * slot + 10.0, 25.0 * image_id + 10.0,
                          g.uniform(6, 10), g.uniform(6, 10))
                gts.append(GroundTruthObject(image_id, ClassLabel.unknown(class_id), box))
                if g.random() < 0.85:
                    jittered = Box(box.cx + g.normal(0, 0.5), box.cy + g.normal(0, 0.5),
                                   box.w, box.h)
                    dets.append(Detection(image_id, ClassLabel.unknown(class_id),
                                          jittered, float(g.uniform(0.3, 1.0))))
            # false positives on empty ground, away from all objects
            for _ in range(int(g.integers(0, 3))):
                fp_box = Box(g.uniform(110, 150), g.uniform(110, 150), 6.0, 6.0)
                dets.append(Detection(image_id, ClassLabel.unknown(int(g.integers(3, 6))),
                                      fp_box, float(g.uniform(0.05, 0.5))))

        value, permutation = uc_map(dets, gts, 0.5)
        recall = uc_recall(dets, gts, permutation, 0.5)

        gt_classes = sorted({g_.label.class_id for g_ in gts})
        label_aps, tp_total = [], 0
        for c in gt_classes:
            class_dets = [d for d in dets if d.label.class_id == c]
            class_gts = [g_ for g_ in gts if g_.label.class_id == c]
            label_aps.append(ap_ref(class_dets, class_gts, 0.5))
            flags, _ = match_flags_ref(class_dets, class_gts, 0.5)
            tp_total += sum(flags)
        label_map = sum(label_aps) / len(label_aps)
        label_recall = tp_total / len(gts)

        assert abs(value - label_map) <= 1e-9
        assert abs(recall - label_recall) <= 1e-9
    assert time.monotonic() - start < 1.0


def test_acceptance_2_assignment_equals_exhaustive_search():
    """500 random gain matrices up to 6x6: the polynomial-time assignment
    recovers the exhaustive-permutation maximum exactly, in under 5 s."""
    start = time.monotonic()
    g = np.random.default_rng(12345)
    for _ in range(500):
        rows, cols = int(g.integers(1, 7)), int(g.integers(1, 7))
        gain = g.uniform(0, 1, size=(rows, cols))
        def row_ordered_total(pairs):
            # fixed summation order so equal assignments give equal floats
            return sum(gain[r, c] for r, c in sorted(pairs))

        got = row_ordered_total(hungarian_assign(gain))

        best = -np.inf
        short, long = (rows, cols) if rows <= cols else (cols, rows)
        for mapped in itertools.permutations(range(long), short):
            if rows <= cols:
                candidate = [(r, c) for r, c in enumerate(mapped)]
            else:
                candidate = [(r, c) for c, r in enumerate(mapped)]
            best = max(best, row_ordered_total(candidate))
        assert got == best
    assert time.monotonic() - start < 5.0


def test_acceptance_3_analytic_gradients_match_finite_differences():
    """All four hand-written losses (unknown-aware cross-entropy, supervised
    pair loss, self-supervised pair loss, cluster KL) agree with central
    finite differences within relative error 1e-4 over 100 seeds each,
    in under 30 s."""
    start = time.monotonic()

    for seed in range(100):
        g = np.random.default_rng(seed)
        n, known_count, unknown_count = int(g.integers(2, 6)), 2, 2
        width = known_count + unknown_count + 1
        logits = g.normal(0, 2, size=(n, width))
        labels = []
        for i in range(n):
            r = g.random()
            if r < 0.4:
                labels.append(ClassLabel.known(int(g.integers(0, known_count))))
            elif r < 0.7:
                labels.append(ClassLabel.unknown(known_count + int(g.integers(0, unknown_count))))
            else:
                labels.append(ClassLabel.background())
        for i, lab in enumerate(labels):
            if lab.is_unknown:
                row = logits[i, known_count : known_count + unknown_count]
                if np.ptp(row) < 1e-3:  # keep the argmax stable under probing
                    logits[i, known_count] += 1.0
        plan = classification_plan(*label_codes(labels), known_count, width)
        _, grad = classification_loss_from_plan(logits, plan)
        fd = central_difference(lambda z: classification_loss_from_plan(z, plan)[0], logits.copy())
        assert relative_error(grad, fd) < 1e-4

    # the pair terms are probed over the embeddings, whose positive entries
    # keep every off-diagonal cosine clear of the clamp
    for seed in range(100):
        g = np.random.default_rng(1000 + seed)
        n = int(g.integers(3, 7))
        labels = [ClassLabel.known(int(g.integers(0, 2))) for _ in range(n - 1)]
        labels.append(ClassLabel.background())
        plan = pair_plan(*label_codes(labels))
        E = g.uniform(0.1, 1.0, size=(n, 4))
        _, grad, _, _ = pair_similarity_loss(E, plan)
        fd = central_difference(lambda e: pair_similarity_loss(e, plan)[0], E.copy())
        assert relative_error(grad, fd) < 1e-4

    for seed in range(100):
        g = np.random.default_rng(2000 + seed)
        n = int(g.integers(3, 7))
        plan = pair_plan(*label_codes([ClassLabel.unknown(2 + int(g.integers(0, 3))) for _ in range(n)]))
        lam = float(g.uniform(0.0, 0.3))
        upper, lower = thresholds(lam)
        # the pair verdicts are a data-selection step: draw embeddings whose
        # verdicts the probe cannot flip, with at least one pair decided
        while True:
            E = g.uniform(0.0, 1.0, size=(n, 4))
            unit = E / np.linalg.norm(E, axis=1, keepdims=True)
            cosines = (unit @ unit.T)[~np.eye(n, dtype=bool)]
            clear = np.abs(cosines[:, None] - np.array([lower, upper])).min() > 1e-3
            if clear and ((cosines < lower) | (cosines > upper)).any():
                break
        _, grad, _, _ = pair_similarity_loss(E, plan, lam)
        fd = central_difference(lambda e: pair_similarity_loss(e, plan, lam)[0], E.copy())
        assert relative_error(grad, fd) < 1e-4

    for seed in range(100):
        g = np.random.default_rng(3000 + seed)
        n, k, d = int(g.integers(3, 7)), int(g.integers(2, 4)), int(g.integers(1, 4))
        E = g.normal(0, 1, size=(n, d))
        C = g.normal(0, 1, size=(k, d))
        Q = target_distribution(soft_assignment(E, C))
        _, grad_e, grad_c = kl_loss(Q, soft_assignment(E, C), E, C)
        fd_c = central_difference(lambda c: kl_divergence(Q, soft_assignment(E, c)), C.copy())
        fd_e = central_difference(lambda e: kl_divergence(Q, soft_assignment(e, C)), E.copy())
        assert relative_error(grad_c, fd_c) < 1e-4
        assert relative_error(grad_e, fd_e) < 1e-4

    assert time.monotonic() - start < 30.0


def test_acceptance_4_threshold_schedule_closed_form():
    """From lambda 0 at rate 0.01, exactly 41 updates close the selection
    band, and the band-width penalty drops by exactly 0.0121 per update."""
    assert steps_to_termination(0.0, 0.01) == 41

    lam, steps = 0.0, 0
    while not schedule_terminated(lam):
        nxt = update_lambda(lam, 0.01)
        assert band_width(lam) - band_width(nxt) == pytest.approx(
            0.0121, abs=1e-12
        )
        lam = nxt
        steps += 1
        assert steps <= 41
    assert steps == 41


def test_acceptance_5_distribution_invariants():
    """Across 1000 random cluster states: soft assignments and targets are
    row-stochastic within 1e-9, and the KL divergence is non-negative with
    equality exactly at identical distributions. Under 5 s."""
    start = time.monotonic()
    g = np.random.default_rng(777)
    for _ in range(1000):
        n, k, d = int(g.integers(1, 7)), int(g.integers(2, 5)), int(g.integers(1, 4))
        E = g.normal(0, 2, size=(n, d))
        C = g.normal(0, 2, size=(k, d))
        P = soft_assignment(E, C)
        Q = target_distribution(P)
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(Q.sum(axis=1) - 1.0).max() <= 1e-9
        value = kl_divergence(Q, P)
        assert value >= 0.0
        if np.allclose(P, Q, atol=1e-7):
            assert value <= 1e-9
        else:
            assert value > 0.0
        assert kl_divergence(P, P) == 0.0
    assert time.monotonic() - start < 5.0


def test_acceptance_6_refinement_efficacy():
    """Clustering recovers three separated Gaussian blobs (sigma 0.1, unit
    separation, 300 points) with accuracy at least 0.95 on 5 seeds, and the
    full pipeline's unknown-class mAP never drops after refinement on any of
    the 5 training seeds. Under 30 s."""
    start = time.monotonic()

    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for seed in range(5):
        g = np.random.default_rng(seed)
        points = np.vstack([g.normal(0, 0.1, size=(100, 2)) + c for c in centers])
        truth = np.repeat(np.arange(3), 100)
        result = refine(points, 3, steps=200, lr=0.1, seed=seed)
        assert best_permutation_accuracy(result.assignments, truth) >= 0.95

    for seed in range(5):
        config = RunConfig(seed=seed)
        dataset = generate_dataset(config)
        trained = train(config, dataset)
        gts = dataset.test_ground_truth()
        before = evaluate(gts, detect(trained.head, dataset.test, config))
        outcome = refine_pipeline(trained.head, dataset, config)
        after = evaluate(gts, outcome.detections)
        assert after.uc_map >= before.uc_map - 1e-12, f"seed {seed}"

    assert time.monotonic() - start < 30.0


def test_acceptance_7_ablation_directions():
    """Enabling the pair-similarity term (weight 0.5 vs 0) strictly raises
    mean unknown-class mAP over 5 seeds, and removing the unknown slots
    drives unknown-class recall to exactly zero. Under 120 s."""
    start = time.monotonic()

    def uc_map_at(alpha_sim: float, seed: int) -> float:
        config = RunConfig(seed=seed, weights=LossWeights(alpha_sim=alpha_sim))
        dataset = generate_dataset(config)
        trained = train(config, dataset)
        report = evaluate(
            dataset.test_ground_truth(),
            detect(trained.head, dataset.test, config),
        )
        return report.uc_map

    with_pairs = [uc_map_at(0.5, seed) for seed in range(5)]
    without_pairs = [uc_map_at(0.0, seed) for seed in range(5)]
    assert np.mean(with_pairs) > np.mean(without_pairs)

    config = RunConfig(seed=0, unknown_slots=0)
    dataset = generate_dataset(config)
    trained = train(config, dataset)
    report = evaluate(
        dataset.test_ground_truth(),
        detect(trained.head, dataset.test, config),
    )
    assert report.uc_recall == 0.0

    assert time.monotonic() - start < 120.0


def test_acceptance_8_pseudo_label_monotonicity():
    """On identical proposal sets, raising the objectness floor from 0.3 to
    0.7 never yields more pseudo-labels; output size never exceeds top_k; and
    no two kept boxes overlap beyond the suppression threshold. Under 5 s."""
    start = time.monotonic()
    g = np.random.default_rng(99)
    for _ in range(300):
        proposals = [
            (g.uniform(0, 40), g.uniform(0, 40), g.uniform(1, 8), g.uniform(1, 8), float(g.uniform(0, 1)))
            for _ in range(int(g.integers(0, 14)))
        ]
        rows = np.array(proposals).reshape(-1, 5)
        boxes, objectness = rows[:, :4], rows[:, 4]
        known = np.array([
            (g.uniform(0, 40), g.uniform(0, 40), g.uniform(1, 8), g.uniform(1, 8))
            for _ in range(int(g.integers(0, 3)))
        ]).reshape(-1, 4)
        top_k = int(g.integers(1, 6))
        nms_threshold = float(g.uniform(0.2, 0.6))
        low = select_pseudo_labels(
            boxes, objectness, known, UlpConfig(nms_threshold=nms_threshold, top_k=top_k, delta=0.3)
        )
        high = select_pseudo_labels(
            boxes, objectness, known, UlpConfig(nms_threshold=nms_threshold, top_k=top_k, delta=0.7)
        )
        assert len(high) <= len(low)
        assert len(low) <= top_k and len(high) <= top_k
        for a in low:
            for b in low:
                if a != b:
                    assert iou(Box(*boxes[a].tolist()), Box(*boxes[b].tolist())) <= nms_threshold
    assert time.monotonic() - start < 5.0


def test_acceptance_9_pipeline_determinism(tmp_path):
    """Two generate->train->refine->score runs with the same seed produce
    byte-identical report files. Under 120 s."""
    start = time.monotonic()

    def run(out_dir):
        out_dir.mkdir()
        assert cli_main(["simulate", "--out-dir", str(out_dir), "--seed", "0"]) == 0
        assert cli_main([
            "train", "--dataset", str(out_dir / "dataset.json"),
            "--out-dir", str(out_dir), "--seed", "0",
        ]) == 0
        assert cli_main([
            "refine", "--dataset", str(out_dir / "dataset.json"),
            "--model", str(out_dir / "model.json"),
            "--out-dir", str(out_dir), "--seed", "0",
        ]) == 0
        assert cli_main([
            "eval", "--gt", str(out_dir / "gt.json"),
            "--det", str(out_dir / "detections_refined.jsonl"),
            "--out", str(out_dir / "report.json"),
        ]) == 0
        return (out_dir / "report.json").read_bytes()

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    assert first == second
    # sanity: the identical reports describe a healthy run
    report = json.loads(first)
    assert report["map_known"] >= 0.9
    assert report["uc_recall"] > 0.0
    assert time.monotonic() - start < 120.0
