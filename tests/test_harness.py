import dataclasses
import json

import numpy as np
import pytest
from scipy.special import softmax

from ucowod import (
    Box,
    ClassLabel,
    GroundTruthObject,
    LossWeights,
    RunConfig,
    SyntheticDataset,
    SyntheticScene,
    ToyHead,
    UlpConfig,
    band_width,
    build_training_rows,
    class_prototypes,
    classification_loss_from_plan,
    classification_plan,
    detect,
    detect_with_embeddings,
    evaluate,
    generate_dataset,
    l1_regression_loss,
    label_codes,
    refine_pipeline,
    select_pseudo_labels,
    total_training_loss,
    train,
)
from ucowod import harness, metrics, pseudo_label
from ucowod.harness import NMS_THRESHOLD, HeadActivations, HiddenGradients, _sample_box, with_ones
from ucowod.io import load_head, save_head

from reference import (
    central_difference,
    classification_loss_ref,
    cosine_matrix_ref,
    folded_forward_ref,
    fold_ref,
    folded_gradients_ref,
    head_create_ref,
    head_forward_ref,
    nms_ref,
    pair_verdicts_ref,
    relative_error,
    sample_box_ref,
    training_rows_ref,
)


@pytest.fixture(scope="module")
def default_run():
    config = RunConfig(seed=0)
    dataset = generate_dataset(config)
    result = train(config, dataset)
    return config, dataset, result


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_resolve():
    config = RunConfig()
    assert config.resolved_warmup() == config.epochs // 2
    assert config.head_width() == config.known_classes + config.unknown_slots + 1
    assert dataclasses.replace(config, warmup_epochs=10).resolved_warmup() == 10


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(known_classes=0)
    with pytest.raises(ValueError):
        RunConfig(feature_dim=4)  # cannot hold 6 separated prototypes
    with pytest.raises(ValueError):
        RunConfig(min_objects=5, max_objects=4)
    with pytest.raises(ValueError):
        RunConfig(warmup_epochs=1000)
    with pytest.raises(ValueError, match="eta must be non-negative"):
        RunConfig(eta=-0.1)
    # NaN passes every range check, and +inf every lower bound; -inf keeps the range message
    for value in (float("nan"), float("inf")):
        for field in ("eta", "learning_rate", "feature_noise"):
            with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
                RunConfig(**{field: value})
        with pytest.raises(ValueError, match=f"alpha_sim must be finite, got {value}"):
            LossWeights(alpha_sim=value)
    for value in (-0.1, -float("inf")):
        with pytest.raises(ValueError, match=f"eta must be non-negative, got {value}"):
            RunConfig(eta=value)
        with pytest.raises(ValueError, match=f"learning_rate must be positive, got {value}"):
            RunConfig(learning_rate=value)
        with pytest.raises(ValueError, match=f"feature_noise must be non-negative, got {value}"):
            RunConfig(feature_noise=value)
        with pytest.raises(ValueError, match="alpha_sim must be non-negative"):
            LossWeights(alpha_sim=value)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        RunConfig(seed=-1)
    with pytest.raises(ValueError, match="need at least one training scene"):
        RunConfig(train_scenes=0)
    for test_scenes in (0, -3):
        with pytest.raises(ValueError, match="need at least one test scene"):
            RunConfig(test_scenes=test_scenes)
    for learning_rate in (-1.0, 0.0):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            RunConfig(learning_rate=learning_rate)
    for refine_clusters, unknown_slots in ((0, 8), (-2, 8), (9, 8), (1, 0)):
        with pytest.raises(ValueError, match=rf"refine_clusters must be null or lie in \[1, {unknown_slots}\]"):
            RunConfig(refine_clusters=refine_clusters, unknown_slots=unknown_slots)
    assert RunConfig(refine_clusters=8).refine_clusters == 8


# ---------------------------------------------------------------------------
# dataset generation


def test_dataset_generation_is_deterministic():
    config = RunConfig(seed=3, train_scenes=4, test_scenes=2)
    a, b = generate_dataset(config), generate_dataset(config)
    for scene_a, scene_b in zip(a.train + a.test, b.train + b.test):
        assert np.array_equal(scene_a.boxes, scene_b.boxes)
        assert np.array_equal(scene_a.objectness, scene_b.objectness)
        assert scene_a.gts == scene_b.gts
        assert np.array_equal(scene_a.features, scene_b.features)


def test_box_sampler_draws_like_one_uniform_call_per_coordinate():
    # every attempt overlaps one of these boxes, so the 100-attempt fallback runs too
    crowded = [Box(10.0 + 10.0 * i, 10.0 + 10.0 * j, 20.0, 20.0) for i in range(9) for j in range(9)]
    for seed in range(200):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        placed = []
        for _ in range(6):
            box = _sample_box(fast, placed)
            assert box == sample_box_ref(slow, placed)
            assert all(type(v) is float for v in (box.cx, box.cy, box.w, box.h))
            placed.append(box)
        if seed < 10:
            assert _sample_box(fast, crowded) == sample_box_ref(slow, crowded)
        assert fast.bit_generator.state == slow.bit_generator.state


def test_zero_noise_features_sit_on_prototypes():
    config = RunConfig(seed=1, train_scenes=3, test_scenes=2, feature_noise=0.0)
    dataset = generate_dataset(config)
    prototypes = class_prototypes(config)
    rows = {tuple(p) for p in prototypes} | {tuple(np.zeros(config.feature_dim))}
    for scene in dataset.train + dataset.test:
        for feature in scene.features:
            assert tuple(feature) in rows


def test_nearest_prototype_accuracy_on_default_noise(default_run):
    _, dataset, _ = default_run
    prototypes = class_prototypes(dataset.config)
    hits, total = 0, 0
    for scene in dataset.test:
        box_to_class = {g.box: g.label.class_id for g in scene.gts}
        for row, feature in zip(scene.boxes.tolist(), scene.features):
            box = Box(*row)
            if box not in box_to_class:
                continue  # jittered or background proposal
            nearest = int(((prototypes - feature) ** 2).sum(axis=1).argmin())
            hits += nearest == box_to_class[box]
            total += 1
    assert total > 0
    assert hits / total >= 0.99


def test_training_scenes_hide_unknown_annotations(default_run):
    _, dataset, _ = default_run
    assert all(g.label.is_known for scene in dataset.train for g in scene.gts)
    test_labels = {g.label.class_id for g in dataset.test_ground_truth() if g.label.is_unknown}
    assert test_labels == {3, 4, 5}


def test_every_scene_pairs_features_with_proposals(default_run):
    _, dataset, _ = default_run
    for scene in dataset.train + dataset.test:
        assert len(scene.features) == len(scene.boxes) == len(scene.objectness)


def test_scene_arrays_of_different_lengths_are_rejected():
    boxes, objectness, features = np.zeros((2, 4)), np.zeros(2), np.zeros((2, 16))
    for rows, scores, feature_rows in ((boxes[:1], objectness, features), (boxes, objectness[:1], features),
                                       (boxes, objectness, features[:1])):
        with pytest.raises(ValueError, match="each proposal needs exactly one box, objectness and feature row"):
            SyntheticScene(0, rows, scores, [], feature_rows)
    assert len(SyntheticScene(0, boxes, objectness, [], features).boxes) == 2


# ---------------------------------------------------------------------------
# toy head


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_head_serialization_round_trip(tmp_path):
    head = ToyHead.create(feature_dim=5, hidden_dim=7, n_logits=6, seed=2)
    head.w1[-1] = np.linspace(-1.0, 1.0, 7)  # non-zero biases in every row that holds one
    head.w2[-1] = np.linspace(-1.0, 1.0, 10)
    save_head(tmp_path / "model.json", head)
    clone = load_head(tmp_path / "model.json")
    assert same_bits(clone.w1, head.w1) and same_bits(clone.w2, head.w2)


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_create_draws_the_six_arrays_of_the_separate_head(seed, tmp_path):
    # the same numbers in the same order as when each array was its own field
    head = ToyHead.create(feature_dim=16, hidden_dim=128, n_logits=12, seed=seed)
    want = head_create_ref(feature_dim=16, hidden_dim=128, n_logits=12, seed=seed)
    folded = fold_ref(want)
    assert same_bits(head.w1, folded.w1) and same_bits(head.w2, folded.w2)
    # and model.json holds them under their names
    save_head(tmp_path / "model.json", head)
    arrays = json.loads((tmp_path / "model.json").read_text())["arrays"]
    assert arrays.keys() == want.keys()
    for name, expected in want.items():
        assert same_bits(np.array(arrays[name]), expected), name


def test_head_backprop_matches_finite_differences():
    # a classification term on the logits and an L1 term on the deltas of the
    # rows with a box target reach every entry of both matrices, bias rows included
    g = np.random.default_rng(0)
    head = ToyHead.create(feature_dim=3, hidden_dim=4, n_logits=5, seed=1)
    head.w1[-1] = g.normal(0, 1, 4)
    head.w2[-1, 5:] = g.normal(0, 1, 4)
    features = g.normal(0, 1, size=(6, 3))
    labels = [ClassLabel.known(0), ClassLabel.known(1), ClassLabel.unknown(2),
              ClassLabel.background(), ClassLabel.known(1), ClassLabel.unknown(3)]
    boxed = np.array([True, True, False, False, True, True])
    box_targets = g.normal(0, 1, size=(4, 4))
    plan = classification_plan(*label_codes(labels), 2, 5)

    def loss_and_gradient(probe):
        acts = probe.forward(with_ones(features))
        cls_value, grad_logits = classification_loss_from_plan(acts.logits, plan)
        reg_value, grad_boxed = l1_regression_loss(acts.deltas[boxed], box_targets)
        grad_outputs = np.zeros_like(acts.outputs)
        grad_outputs[:, :5] = grad_logits
        grad_outputs[boxed, 5:] = grad_boxed
        return cls_value + reg_value, acts, grad_outputs

    _, acts, grad_outputs = loss_and_gradient(head)
    grads = head.gradients(with_ones(features), acts, grad_outputs, HiddenGradients.empty(6, 4))
    for name, grad in zip(("w1", "w2"), grads):
        def loss_of(param, name=name):
            return loss_and_gradient(dataclasses.replace(head, **{name: param}))[0]

        fd = central_difference(loss_of, getattr(head, name).copy())
        assert grad.shape == fd.shape and (fd[-1] != 0).any(), name
        assert relative_error(grad, fd) < 1e-4, name


def test_buffered_head_equals_the_allocating_oracle_bit_for_bit():
    # one set of buffers serves calls on two heads in turn, as training's
    # epochs do; hidden units whose pre-activation is exactly 0 (a zero
    # weight column, and a zero feature row where the bias is 0) meet
    # negative hidden gradients, whose masked product is -0.0
    g = np.random.default_rng(3)
    n, feature_dim, hidden_dim, n_logits = 9, 4, 6, 5
    features = g.normal(0, 1, size=(n, feature_dim))
    features[2] = 0.0
    inputs = with_ones(features)
    acts, work = HeadActivations.empty(n, hidden_dim, n_logits), HiddenGradients.empty(n, hidden_dim)
    for seed in (0, 1):
        head = ToyHead.create(feature_dim, hidden_dim, n_logits, seed=seed)
        head.w1[:, 1] = 0.0
        head.w1[-1] = np.where(np.arange(hidden_dim) % 2 == 1, 0.0, g.normal(0, 1, hidden_dim))
        # every hidden gradient of column 1 negative
        head.w2[1] = np.abs(head.w2[1])
        grad_outputs = -np.abs(g.normal(0, 1, size=(n, n_logits + 4)))
        grad_outputs[:, n_logits:][g.random((n, 4)) < 0.5] = 0.0

        assert head.forward(inputs, acts) is acts
        want_inputs, want_hidden, want_outputs = folded_forward_ref(head, features)
        assert same_bits(inputs, want_inputs)
        assert same_bits(acts.hidden, want_hidden) and same_bits(acts.outputs, want_outputs)
        assert (acts.hidden[:, :-1] == 0.0).any()

        grads = head.gradients(inputs, acts, grad_outputs, work)
        want_grads = folded_gradients_ref(head, want_inputs, want_hidden, grad_outputs)
        assert len(grads) == len(want_grads) == 2
        for got, expected in zip(grads, want_grads):
            assert same_bits(got, expected)
        # work.hidden ends as the masked hidden gradient: -0.0 in column 1
        assert not work.hidden[:, 1].any() and np.signbit(work.hidden[:, 1]).all()
        # the form that allocates its own arrays is the same computation
        fresh = head.forward(inputs)
        assert fresh is not acts and same_bits(fresh.hidden, want_hidden) and same_bits(fresh.outputs, want_outputs)


def test_folded_forward_is_the_six_array_head_to_a_few_ulp():
    # a bias summed inside the GEMM rounds differently from one added after it
    g = np.random.default_rng(5)
    for seed in range(4):
        arrays = head_create_ref(feature_dim=16, hidden_dim=128, n_logits=12, seed=seed)
        for name in ("b_hidden", "b_cls", "b_reg"):
            arrays[name] = g.normal(0, 1, arrays[name].shape)
        head = fold_ref(arrays)
        features = g.normal(0, 1, size=(50, 16))
        acts = head.forward(with_ones(features))
        want_hidden, want_logits, want_deltas = head_forward_ref(arrays, features)
        for got, expected in ((acts.hidden[:, :-1], want_hidden), (acts.logits, want_logits),
                              (acts.deltas, want_deltas)):
            # 8 ulp of the output's largest entry
            bound = 8 * np.finfo(float).eps * np.abs(expected).max()
            assert np.abs(got - expected).max() <= bound
        assert (acts.hidden[:, -1] == 1.0).all()


def test_weight_decay_shrinks_weight_matrices_only():
    # the bias rows of both matrices keep their values
    head = ToyHead.create(feature_dim=3, hidden_dim=4, n_logits=5, seed=0)
    head.w1[-1], head.w2[-1] = 1.0, 1.0
    before = head.w1.copy(), head.w2.copy()
    head.apply_gradients((np.zeros_like(head.w1), np.zeros_like(head.w2)), learning_rate=0.5, weight_decay=0.1)
    for after, weights in zip((head.w1, head.w2), before):
        assert np.allclose(after[:-1], weights[:-1] * (1.0 - 0.5 * 0.1), atol=1e-15)
        assert np.array_equal(after[-1], weights[-1])


# ---------------------------------------------------------------------------
# training-row assembly


def test_training_rows_cover_every_proposal(default_run):
    config, dataset, result = default_run
    rows = result.rows
    n_proposals = sum(len(s.boxes) for s in dataset.train)
    assert len(rows.features) == n_proposals
    assert len(rows.labels) == n_proposals
    assert rows.delta_targets.shape == (n_proposals, 4)
    # background rows carry no box target and zero deltas
    for label, masked, delta in zip(rows.labels, rows.has_box_target, rows.delta_targets):
        if label.is_background:
            assert not masked
            assert not delta.any()
        else:
            assert masked


def test_training_row_targets_point_at_candidate_boxes(default_run):
    config, dataset, _ = default_run
    rows = build_training_rows(dataset, config)
    cursor = 0
    for scene in dataset.train:
        known = [g for g in scene.gts if g.label.is_known]
        pseudo = select_pseudo_labels(scene.boxes, scene.objectness, Box.array([g.box for g in known]), config.ulp)
        proposals = [Box(*row) for row in scene.boxes.tolist()]
        boxes = {g.box for g in known} | {proposals[i] for i in pseudo}
        for proposal in proposals:
            if rows.has_box_target[cursor]:
                d = rows.delta_targets[cursor]
                target = Box(proposal.cx + d[0], proposal.cy + d[1], proposal.w + d[2], proposal.h + d[3])
                assert target in boxes
            cursor += 1
    assert cursor == len(rows.labels)


def test_pseudo_rows_use_first_unknown_slot(default_run):
    config, _, result = default_run
    unknown_ids = {l.class_id for l in result.rows.labels if l.is_unknown}
    assert unknown_ids == {config.known_classes}
    # every pseudo object labels at least its own source proposal; jittered
    # proposals matching it add more rows
    unknown_rows = sum(1 for l in result.rows.labels if l.is_unknown)
    assert 0 < result.rows.n_pseudo <= unknown_rows


def test_no_unknown_slots_means_no_pseudo_labels():
    config = RunConfig(seed=0, unknown_slots=0, weights=LossWeights(alpha_sim=0.0),
                       train_scenes=4, test_scenes=2, epochs=2)
    dataset = generate_dataset(config)
    rows = build_training_rows(dataset, config)
    assert rows.n_pseudo == 0
    assert not any(l.is_unknown for l in rows.labels)


@pytest.mark.parametrize(
    "overrides",
    [
        {"seed": 0},
        {"seed": 1},
        {"seed": 2},
        {"seed": 3, "ulp": UlpConfig(known_overlap_threshold=0.1, top_k=3)},
        # scenes without known objects: no candidates at all
        {"seed": 4, "known_classes": 1, "unknown_slots": 0, "min_objects": 1, "max_objects": 2},
    ],
)
def test_training_rows_equal_the_per_pair_loop(overrides):
    config = RunConfig(**overrides)
    dataset = generate_dataset(config)
    rows = build_training_rows(dataset, config)
    features, labels, deltas, mask, n_pseudo = training_rows_ref(dataset, config)
    assert rows.labels == labels
    assert rows.n_pseudo == n_pseudo
    for got, want in ((rows.features, features), (rows.delta_targets, deltas), (rows.has_box_target, mask)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_training_target_at_exactly_the_iou_threshold():
    # a 1 x 2 proposal inside a 2 x 2 object overlaps it by exactly 1/2
    config = RunConfig(unknown_slots=0)
    gts = [GroundTruthObject(0, ClassLabel.known(1), Box(0.0, 0.0, 2.0, 2.0))]
    boxes = np.array([[0.5, 0.0, 1.0, 2.0], [5.0, 5.0, 1.0, 1.0]])
    scene = SyntheticScene(0, boxes, np.array([0.9, 0.9]), gts, np.zeros((2, config.feature_dim)))
    rows = build_training_rows(SyntheticDataset([scene], [], config), config)
    assert rows.labels == (ClassLabel.known(1), ClassLabel.background())
    assert rows.delta_targets.tolist() == [[-0.5, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
    assert rows.has_box_target.tolist() == [True, False]


def test_scoring_and_target_assignment_make_no_scalar_iou_call(default_run, monkeypatch):
    """``evaluate``, ``build_training_rows`` with its pseudo-label
    suppression and known-overlap filter, ``detect_with_embeddings`` and
    ``refine_pipeline`` with its second suppression compare boxes through
    ``pairwise_iou`` only: the scalar ``iou`` is left to data generation."""
    config, dataset, result = default_run
    gts, (detections, embeddings) = dataset.test_ground_truth(), detect_with_embeddings(result.head, dataset.test, config)
    report, rows = evaluate(gts, detections), build_training_rows(dataset, config)
    refined = refine_pipeline(result.head, dataset, config)

    def refuse(a, b):
        raise AssertionError("scalar iou called")

    for module in (harness, metrics, pseudo_label):
        monkeypatch.setattr(module, "iou", refuse, raising=False)
    assert evaluate(gts, detections) == report
    again = build_training_rows(dataset, config)
    assert again.labels == rows.labels and again.delta_targets.tobytes() == rows.delta_targets.tobytes()
    again_detections, again_embeddings = detect_with_embeddings(result.head, dataset.test, config)
    assert again_detections == detections and again_embeddings.tobytes() == embeddings.tobytes()
    again_refined = refine_pipeline(result.head, dataset, config)
    assert again_refined.detections == refined.detections
    assert again_refined.refined_indices == refined.refined_indices


# ---------------------------------------------------------------------------
# training


def test_known_only_config_reduces_to_accurate_classifier():
    config = RunConfig(seed=0, known_classes=3, unknown_gt_classes=0, unknown_slots=0,
                       weights=LossWeights(alpha_sim=0.0), epochs=60,
                       train_scenes=12, test_scenes=6)
    dataset = generate_dataset(config)
    result = train(config, dataset)
    logits = result.head.forward(with_ones(result.rows.features)).logits
    predicted = logits.argmax(axis=1)
    background = config.head_width() - 1
    wanted = np.array(
        [l.class_id if l.is_known else background for l in result.rows.labels]
    )
    assert (predicted == wanted).mean() >= 0.99


def test_training_loss_descends(default_run):
    _, _, result = default_run
    assert result.history[-1].total <= result.history[0].total
    assert all(np.isfinite(h.total) for h in result.history)


def test_lambda_schedule_runs_to_termination(default_run):
    config, _, result = default_run
    warmup = config.resolved_warmup()
    phases = [h.phase for h in result.history]
    assert all(p == "supervised" for p in phases[:warmup])
    assert phases.count("self") == 41  # ceil(0.45 / 0.011) threshold crossings
    assert phases[warmup : warmup + 41] == ["self"] * 41
    assert all(p == "post" for p in phases[warmup + 41 :])
    assert result.final_lambda == pytest.approx(41 * 0.011, abs=1e-12)


def test_history_pair_counts_match_label_matrices():
    # eta 0.1 closes the band in 5 updates: 3 supervised, 5 self, 2 post epochs
    config = RunConfig(seed=0, train_scenes=3, test_scenes=1, epochs=10, warmup_epochs=3, eta=0.1)
    dataset = generate_dataset(config)
    result = train(config, dataset)
    assert [h.phase for h in result.history] == ["supervised"] * 3 + ["self"] * 5 + ["post"] * 2
    rows = result.rows
    for stats in result.history:
        S, lam = None, None
        if stats.phase == "self":
            # the same run stopped before this epoch holds the epoch's head
            head = train(dataclasses.replace(config, epochs=stats.epoch), dataset).head
            S, lam = cosine_matrix_ref(head.forward(with_ones(rows.features)).logits), stats.lam
        positive, negative = pair_verdicts_ref(rows.codes, rows.unknown, S, lam)
        assert (stats.positive, stats.negative) == (positive.sum(), negative.sum())


def test_epoch_total_adds_the_band_width_once():
    # eta 0.1 closes the band in 5 updates: 3 supervised, 5 self, 2 post epochs
    config = RunConfig(seed=0, train_scenes=3, test_scenes=1, epochs=10, warmup_epochs=3, eta=0.1)
    result = train(config, generate_dataset(config))
    assert [h.phase for h in result.history] == ["supervised"] * 3 + ["self"] * 5 + ["post"] * 2
    for h in result.history:
        assert h.penalty == (band_width(h.lam) if h.phase == "self" else 0.0)
        assert h.model_loss == total_training_loss(h.classification, h.regression, h.pair, config.weights)
        assert h.total == total_training_loss(h.classification, h.regression, h.pair + h.penalty, config.weights)


def test_train_builds_label_codes_once(monkeypatch):
    # build_training_rows makes the codes; no epoch rebuilds them
    import ucowod.harness
    import ucowod.losses

    calls, original = [], ucowod.losses.label_codes

    def counted(labels):
        calls.append(len(labels))
        return original(labels)

    monkeypatch.setattr(ucowod.losses, "label_codes", counted)
    monkeypatch.setattr(ucowod.harness, "label_codes", counted)
    config = RunConfig(seed=0, train_scenes=3, test_scenes=1, epochs=10)
    result = train(config, generate_dataset(config))
    assert calls == [len(result.rows.labels)]


def test_train_builds_pair_state_once(monkeypatch):
    # the label-only state of both loss terms is built before the first
    # epoch; every epoch reuses it
    import ucowod.harness

    calls = []

    def counted(name):
        original = getattr(ucowod.harness, name)

        def wrapper(*args):
            calls.append((name, args[1] if name == "pair_similarity_loss" else None))
            return original(*args)

        return wrapper

    for name in ("pair_plan", "classification_plan", "pair_similarity_loss"):
        monkeypatch.setattr(ucowod.harness, name, counted(name))
    config = RunConfig(seed=0, train_scenes=3, test_scenes=1, epochs=10, warmup_epochs=4)
    result = train(config, generate_dataset(config))
    assert [stats.phase for stats in result.history].count("self") == 6
    assert [name for name, _ in calls].count("pair_plan") == 1
    assert [name for name, _ in calls].count("classification_plan") == 1
    # every epoch, self-supervised ones included, reads the one pair plan
    plans = [plan for name, plan in calls if name == "pair_similarity_loss"]
    assert len(plans) == 10 and all(plan is plans[0] for plan in plans)


def test_classification_loss_from_plan_is_classification_loss(default_run):
    config, _, result = default_run
    rows = result.rows
    logits = result.head.forward(with_ones(rows.features)).logits
    plan = classification_plan(rows.codes, rows.unknown, config.known_classes, config.head_width())
    value, grad = classification_loss_from_plan(logits, plan)
    assert value == pytest.approx(classification_loss_ref(logits, rows.labels, config.known_classes), abs=1e-10)
    # the plan is not changed by a call: a second call gives the same result
    again_value, again_grad = classification_loss_from_plan(logits, plan)
    assert again_value == value and np.array_equal(again_grad, grad)
    n, width = logits.shape
    with pytest.raises(ValueError, match=f"logits of shape \\({n - 1}, {width}\\) for a plan of {n} rows and {width} slots"):
        classification_loss_from_plan(logits[1:], plan)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_raises_with_epoch_index():
    config = RunConfig(seed=0, epochs=30, learning_rate=1e12,
                       train_scenes=8, test_scenes=4)
    dataset = generate_dataset(config)
    with pytest.raises(RuntimeError, match="epoch"):
        train(config, dataset)


def test_trained_head_scores_well_on_test_split(default_run):
    config, dataset, result = default_run
    report = evaluate(dataset.test_ground_truth(), detect(result.head, dataset.test, config))
    assert report.map_known >= 0.9
    assert report.uc_recall > 0.0


# ---------------------------------------------------------------------------
# refinement pipeline


def test_refine_pipeline_is_deterministic(default_run):
    config, dataset, result = default_run
    a = refine_pipeline(result.head, dataset, config)
    b = refine_pipeline(result.head, dataset, config)
    assert a.detections == b.detections
    assert np.array_equal(a.result.assignments, b.result.assignments)
    assert a.n_clusters == b.n_clusters


def test_refine_pipeline_outputs_are_consistent(default_run):
    config, dataset, result = default_run
    outcome = refine_pipeline(result.head, dataset, config)
    assert outcome.refined_indices == [
        i for i, d in enumerate(outcome.detections) if d.label.is_unknown
    ]
    ids = {outcome.detections[i].label.class_id for i in outcome.refined_indices}
    assert ids <= set(range(config.known_classes, config.known_classes + outcome.n_clusters))


def test_refine_pipeline_runs_kmeans_once_per_candidate_count(default_run, monkeypatch):
    # refine starts from the sweep's fit of the chosen count instead of
    # running k-means for it again; a fixed count runs it once, in refine
    import ucowod.refinement

    config, dataset, result = default_run
    counts, original = [], ucowod.refinement.kmeans_init

    def counted(points, n_clusters, seed=0):
        counts.append(n_clusters)
        return original(points, n_clusters, seed)

    monkeypatch.setattr(ucowod.refinement, "kmeans_init", counted)
    outcome = refine_pipeline(result.head, dataset, config)
    assert counts == list(range(2, config.unknown_slots + 1))
    assert outcome.n_clusters in counts
    counts.clear()
    refine_pipeline(result.head, dataset, dataclasses.replace(config, refine_clusters=3))
    assert counts == [3]


def test_refine_single_cluster_collapses_ids_and_keeps_recall():
    config = RunConfig(seed=0, unknown_gt_classes=1, train_scenes=16, test_scenes=8, epochs=120)
    dataset = generate_dataset(config)
    result = train(config, dataset)
    gts = dataset.test_ground_truth()
    before = evaluate(gts, detect(result.head, dataset.test, config))

    outcome = refine_pipeline(result.head, dataset, dataclasses.replace(config, refine_clusters=1))
    assert len(set(outcome.result.assignments.tolist())) == 1
    ids = {d.label.class_id for d in outcome.detections if d.label.is_unknown}
    assert ids == {config.known_classes}
    after = evaluate(gts, outcome.detections)
    assert after.uc_recall == pytest.approx(before.uc_recall, abs=1e-12)


def test_image_ids_beyond_int64_change_nothing_but_the_ids(default_run):
    config, dataset, result = default_run
    shift = 2**70

    def shifted(scene):
        return SyntheticScene(
            scene.image_id + shift,
            scene.boxes,
            scene.objectness,
            [dataclasses.replace(g, image_id=g.image_id + shift) for g in scene.gts],
            scene.features,
        )

    def unshifted(detections):
        return [dataclasses.replace(d, image_id=d.image_id - shift) for d in detections]

    moved = SyntheticDataset([shifted(s) for s in dataset.train], [shifted(s) for s in dataset.test], config)
    detections, embeddings = detect_with_embeddings(result.head, dataset.test, config)
    moved_detections, moved_embeddings = detect_with_embeddings(result.head, moved.test, config)
    assert unshifted(moved_detections) == detections
    assert moved_embeddings.tobytes() == embeddings.tobytes()
    refined, moved_refined = refine_pipeline(result.head, dataset, config), refine_pipeline(result.head, moved, config)
    assert unshifted(moved_refined.detections) == refined.detections
    assert moved_refined.refined_indices == refined.refined_indices
    report = evaluate(dataset.test_ground_truth(), refined.detections)
    assert evaluate(moved.test_ground_truth(), moved_refined.detections) == report


def test_refine_pipeline_requires_unknown_detections():
    config = RunConfig(seed=0, unknown_slots=0, weights=LossWeights(alpha_sim=0.0),
                       epochs=40, train_scenes=8, test_scenes=4)
    dataset = generate_dataset(config)
    result = train(config, dataset)
    with pytest.raises(RuntimeError, match="unknown"):
        refine_pipeline(result.head, dataset, config)


def test_detect_with_embeddings_alignment(default_run):
    config, dataset, result = default_run
    detections, embeddings = detect_with_embeddings(result.head, dataset.test, config)
    assert len(detections) == len(embeddings)
    assert embeddings.shape[1] == config.head_width()
    assert all(d.score >= 0.0 and not d.label.is_background for d in detections)


def test_detect_with_embeddings_matches_slot_by_slot_reference(default_run):
    config, dataset, result = default_run
    head = result.head
    want, want_rows, candidates = [], [], 0
    for scene in dataset.test:
        acts = head.forward(with_ones(scene.features))
        probs = softmax(acts.logits, axis=1)
        for slot in range(config.head_width() - 1):
            rows = [row for row in range(len(probs)) if probs[row].argmax() == slot]
            candidates += len(rows)
            scored = []
            for row in rows:
                p, d = Box(*scene.boxes[row].tolist()), acts.deltas[row]
                box = Box(p.cx + d[0], p.cy + d[1], max(p.w + d[2], 1e-3), max(p.h + d[3], 1e-3))
                scored.append((box, float(probs[row, slot])))
            kept = sorted(nms_ref(scored, NMS_THRESHOLD), key=lambda i: (-scored[i][1], rows[i]))
            want += [(scene.image_id, slot, *scored[i]) for i in kept]
            want_rows += [acts.logits[rows[i]] for i in kept]
    detections, embeddings = detect_with_embeddings(head, dataset.test, config)
    assert [(d.image_id, d.label.class_id, d.box, d.score) for d in detections] == want
    assert np.array_equal(embeddings, np.array(want_rows))
    # the fixture exercises suppression and several slots
    assert len(want) < candidates
    assert len({slot for _, slot, _, _ in want}) > config.known_classes
