import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ucowod import (
    Box,
    ClassLabel,
    Detection,
    EvalConfig,
    GroundTruthObject,
    absolute_open_set_error,
    average_precision,
    evaluate,
    hungarian_assign,
    iou,
    match_known_detections,
    suppress,
    uc_map,
    uc_recall,
    wilderness_impact,
)

from reference import (
    a_ose_ref,
    ap_ref,
    examples,
    hungarian_ref,
    nms_ref,
    uc_map_ref,
    uc_recall_ref,
    wi_ref,
)

rng = np.random.default_rng(20240817)


def known_det(image_id, cls, box, score):
    return Detection(image_id=image_id, label=ClassLabel.known(cls), box=box, score=score)


def unknown_det(image_id, cls, box, score):
    return Detection(image_id=image_id, label=ClassLabel.unknown(cls), box=box, score=score)


def known_gt(image_id, cls, box):
    return GroundTruthObject(image_id=image_id, label=ClassLabel.known(cls), box=box)


def unknown_gt(image_id, cls, box):
    return GroundTruthObject(image_id=image_id, label=ClassLabel.unknown(cls), box=box)


def random_box(generator, span=60.0):
    return Box(
        generator.uniform(0, span),
        generator.uniform(0, span),
        generator.uniform(2, 14),
        generator.uniform(2, 14),
    )


def random_scene(seed, n_known=2, n_unknown=2):
    """A small random evaluation problem with overlapping boxes on purpose."""
    g = np.random.default_rng(seed)
    gts, dets = [], []
    for image_id in range(g.integers(1, 4)):
        for _ in range(g.integers(1, 6)):
            cls = int(g.integers(0, n_known + n_unknown))
            box = random_box(g)
            if cls < n_known:
                gts.append(known_gt(image_id, cls, box))
            else:
                gts.append(unknown_gt(image_id, cls, box))
        for _ in range(g.integers(0, 8)):
            cls = int(g.integers(0, n_known + n_unknown))
            if gts and g.random() < 0.6:
                anchor = gts[g.integers(0, len(gts))]
                if anchor.image_id == image_id:
                    base = anchor.box
                    box = Box(
                        base.cx + g.normal(0, 2),
                        base.cy + g.normal(0, 2),
                        max(base.w + g.normal(0, 1), 1.0),
                        max(base.h + g.normal(0, 1), 1.0),
                    )
                else:
                    box = random_box(g)
            else:
                box = random_box(g)
            score = float(g.uniform(0.05, 1.0))
            if cls < n_known:
                dets.append(known_det(image_id, cls, box, score))
            else:
                dets.append(unknown_det(image_id, cls, box, score))
    return dets, gts


# ---------------------------------------------------------------------------
# NMS


def suppress_scored(groups, scored_boxes, threshold):
    """``suppress`` over (box, score) pairs, as a list."""
    scores = [score for _, score in scored_boxes]
    boxes = Box.array([box for box, _ in scored_boxes])
    return suppress(groups, scores, boxes, threshold).tolist()


def suppress_one(scored_boxes, threshold):
    return suppress_scored([0] * len(scored_boxes), scored_boxes, threshold)


def suppress_by_group_ref(groups, scored_boxes, threshold):
    """The suppression oracle run on each group alone, groups ascending,
    survivors in rank order, as global indices."""
    want = []
    for group in sorted(set(groups)):
        members = [i for i, g in enumerate(groups) if g == group]
        kept = [members[k] for k in nms_ref([scored_boxes[i] for i in members], threshold)]
        want += sorted(kept, key=lambda i: (-scored_boxes[i][1], i))
    return want


def test_nms_single_box_kept():
    assert suppress_one([(Box(0, 0, 2, 2), 0.5)], 0.5) == [0]


def test_nms_identical_boxes_keep_highest():
    boxes = [(Box(0, 0, 2, 2), 0.9), (Box(0, 0, 2, 2), 0.8)]
    assert suppress_one(boxes, 0.5) == [0]


def test_nms_threshold_is_strict():
    # pairwise IoU exactly 1/3: suppressed at 0.3, kept at 0.5 and at 1/3
    a, b = Box(1, 1, 2, 2), Box(2, 1, 2, 2)
    assert iou(a, b) == pytest.approx(1 / 3, abs=1e-12)
    assert suppress_one([(a, 0.9), (b, 0.8)], 0.3) == [0]
    assert suppress_one([(a, 0.9), (b, 0.8)], 0.5) == [0, 1]
    assert suppress_one([(a, 0.9), (b, 0.8)], iou(a, b)) == [0, 1]


def test_nms_empty():
    assert suppress_one([], 0.5) == []


@settings(max_examples=examples(200))
@given(st.integers(0, 10_000))
def test_nms_matches_reference_and_is_antichain(seed):
    g = np.random.default_rng(seed)
    boxes = [(random_box(g, span=20.0), float(g.uniform(0, 1))) for _ in range(g.integers(0, 12))]
    threshold = float(g.uniform(0.1, 0.9))
    kept = suppress_one(boxes, threshold)
    assert kept == suppress_by_group_ref([0] * len(boxes), boxes, threshold)
    for i in kept:
        for j in kept:
            if i != j:
                assert iou(boxes[i][0], boxes[j][0]) <= threshold


def test_nms_groups_stay_apart_with_ties_and_at_threshold():
    # b overlaps a by exactly the threshold, and c is a copy of a
    a, b, c = Box(1, 1, 2, 2), Box(2, 1, 2, 2), Box(1, 1, 2, 2)
    scored = [(b, 0.5), (a, 0.5), (a, 0.9), (c, 0.5), (b, 0.9)]
    groups = [4, 1, 4, 1, 1]
    threshold = iou(a, b)
    # group 1: b first, then a, which ties c and has the lower index, kept at
    # the threshold; c then falls to a. Group 4: a first, then b kept.
    assert suppress_scored(groups, scored, threshold) == [4, 1, 2, 0]
    assert suppress_by_group_ref(groups, scored, threshold) == [4, 1, 2, 0]


@settings(max_examples=examples(200))
@given(st.integers(0, 10_000))
def test_nms_interleaved_groups_match_reference_group_by_group(seed):
    # boxes on a half-unit grid with sides 1 or 2 meet at IoU exactly 1/3, 1/2
    # and 1/4, scores from three values tie often, and group codes interleave
    g = np.random.default_rng(seed)
    n = int(g.integers(0, 24))
    boxes = [
        Box(float(g.integers(0, 12)) / 2, float(g.integers(0, 12)) / 2, float(g.integers(1, 3)), float(g.integers(1, 3)))
        for _ in range(n)
    ]
    scored = [(box, float(g.choice([0.25, 0.5, 0.75]))) for box in boxes]
    groups = [int(x) for x in g.choice([0, 3, 7, 8], size=n)]
    threshold = float(g.choice([1 / 4, iou(Box(1, 1, 2, 2), Box(2, 1, 2, 2)), 1 / 2, float(g.uniform(0, 1))]))
    assert suppress_scored(groups, scored, threshold) == suppress_by_group_ref(groups, scored, threshold)


# ---------------------------------------------------------------------------
# average precision


def test_ap_perfect_single_detection():
    gts = [known_gt(0, 0, Box(0, 0, 2, 2))]
    dets = [known_det(0, 0, Box(0, 0, 2, 2), 1.0)]
    assert average_precision(dets, gts, 0.5) == 1.0


def test_ap_no_detections():
    gts = [known_gt(0, 0, Box(0, 0, 2, 2))]
    assert average_precision([], gts, 0.5) == 0.0


def test_ap_zero_ground_truth_convention():
    dets = [known_det(0, 0, Box(0, 0, 2, 2), 1.0)]
    assert average_precision(dets, [], 0.5) == 0.0


def test_ap_hand_computed_five_sixths():
    gts = [known_gt(0, 0, Box(0, 0, 2, 2)), known_gt(0, 0, Box(10, 0, 2, 2))]
    dets = [
        known_det(0, 0, Box(0, 0, 2, 2), 0.9),
        known_det(0, 0, Box(20, 20, 2, 2), 0.8),
        known_det(0, 0, Box(10, 0, 2, 2), 0.7),
    ]
    assert ap_ref(dets, gts, 0.5) == pytest.approx(5 / 6, abs=1e-12)
    assert average_precision(dets, gts, 0.5) == pytest.approx(5 / 6, abs=1e-12)


def test_ap_at_threshold_zero_still_needs_overlap():
    # a same-image detection that does not touch the object is a false
    # positive even when any IoU reaches the threshold
    gts = [known_gt(0, 0, Box(0, 0, 2, 2))]
    apart = known_det(0, 0, Box(10, 10, 2, 2), 0.9)
    assert average_precision([apart], gts, 0.0) == ap_ref([apart], gts, 0.0) == 0.0
    both = [apart, known_det(0, 0, Box(0.5, 0, 2, 2), 0.8)]
    assert average_precision(both, gts, 0.0) == ap_ref(both, gts, 0.0) == 0.5


def test_ap_lowest_ground_truth_index_wins_iou_ties():
    # the detection overlaps both objects by 1/3; the first takes it, so the
    # second detection, which fits only the first object, finds it taken
    gts = [known_gt(0, 0, Box(-1, 0, 2, 2)), known_gt(0, 0, Box(1, 0, 2, 2))]
    dets = [known_det(0, 0, Box(0, 0, 2, 2), 0.9), known_det(0, 0, Box(-1, 0, 2, 2), 0.8)]
    assert average_precision(dets, gts, 0.3) == 0.5


# thresholds the reference tests draw: 0 still needs the boxes to overlap
THRESHOLDS = st.sampled_from([0.0, 0.3, 0.5, 0.7])


@settings(max_examples=examples(150), deadline=None)
@given(st.integers(0, 10_000), THRESHOLDS)
def test_ap_matches_reference_on_random_problems(seed, threshold):
    dets, gts = random_scene(seed)
    class_dets = [d for d in dets if d.label.is_known and d.label.class_id == 0]
    class_gts = [g for g in gts if g.label.is_known and g.label.class_id == 0]
    got = average_precision(class_dets, class_gts, threshold)
    want = ap_ref(class_dets, class_gts, threshold)
    assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=examples(60), deadline=None)
@given(st.integers(0, 10_000))
def test_ap_invariant_under_monotone_score_transform(seed):
    dets, gts = random_scene(seed)
    class_dets = [d for d in dets if d.label.is_known and d.label.class_id == 0]
    class_gts = [g for g in gts if g.label.is_known and g.label.class_id == 0]
    import dataclasses

    squashed = [dataclasses.replace(d, score=d.score**3 / 2) for d in class_dets]
    before = average_precision(class_dets, class_gts, 0.5)
    after = average_precision(squashed, class_gts, 0.5)
    assert before == pytest.approx(after, abs=1e-12)


# ---------------------------------------------------------------------------
# wilderness impact and open-set error


def test_wi_zero_when_no_open_set_errors():
    dets = [known_det(0, 0, Box(0, 0, 2, 2), 0.9)]
    gts = [known_gt(0, 0, Box(0, 0, 2, 2))]
    match = match_known_detections(dets, gts, 0.5)
    assert wilderness_impact(match, 0) == 0.0


def test_wi_direct_formula():
    # 10 TP + 10 FP known detections, 5 open-set errors -> 0.25
    gts, dets = [], []
    for i in range(10):
        box = Box(5 * i, 0, 2, 2)
        gts.append(known_gt(0, 0, box))
        dets.append(known_det(0, 0, box, 0.9))
        dets.append(known_det(0, 0, Box(5 * i, 30, 2, 2), 0.8))
    match = match_known_detections(dets, gts, 0.5)
    assert match.tp_known == 10 and match.fp_known == 10
    assert wilderness_impact(match, 5) == pytest.approx(0.25, abs=1e-12)


def test_wi_ratio_of_equals_is_one():
    dets = [known_det(0, 0, Box(0, 0, 2, 2), 0.9)]
    match = match_known_detections(dets, [], 0.5)
    assert wilderness_impact(match, match.tp_known + match.fp_known) == 1.0


def test_a_ose_counts_each_unknown_object_once():
    ugt = unknown_gt(0, 5, Box(0, 0, 4, 4))
    dets = [
        known_det(0, 0, Box(0, 0, 4, 4), 0.9),
        known_det(0, 1, Box(0.2, 0, 4, 4), 0.8),
    ]
    assert absolute_open_set_error(match_known_detections(dets, [ugt], 0.5), [ugt], 0.5) == 1


def test_a_ose_ignores_true_positive_known_detections():
    kgt = known_gt(0, 0, Box(0, 0, 4, 4))
    ugt = unknown_gt(0, 5, Box(0.5, 0, 4, 4))
    dets = [known_det(0, 0, Box(0, 0, 4, 4), 0.9)]
    # the only known detection is a TP for the known object, so no error
    match = match_known_detections(dets, [kgt, ugt], 0.5)
    assert absolute_open_set_error(match, [kgt, ugt], 0.5) == 0


def test_a_ose_zero_without_known_detections():
    ugt = unknown_gt(0, 5, Box(0, 0, 4, 4))
    match = match_known_detections([unknown_det(0, 5, Box(0, 0, 4, 4), 0.9)], [ugt], 0.5)
    assert absolute_open_set_error(match, [ugt], 0.5) == 0


def test_a_ose_only_counts_false_known_detections_of_the_same_image():
    ugt = unknown_gt(0, 5, Box(0, 0, 4, 4))
    dets = [known_det(1, 0, Box(0, 0, 4, 4), 0.9)]
    match = match_known_detections(dets, [ugt], 0.5)
    assert match.is_tp == (False,)
    assert absolute_open_set_error(match, [ugt], 0.5) == 0


def test_a_ose_at_threshold_zero_needs_overlap():
    # a same-image false known detection far from the unknown object covers
    # nothing, even at threshold 0
    ugt = unknown_gt(0, 5, Box(0, 0, 2, 2))
    dets = [known_det(0, 0, Box(50, 50, 2, 2), 0.9)]
    match = match_known_detections(dets, [ugt], 0.0)
    assert absolute_open_set_error(match, [ugt], 0.0) == 0
    assert a_ose_ref(dets, [ugt], 0.0) == 0


@settings(max_examples=examples(150), deadline=None)
@given(st.integers(0, 10_000), THRESHOLDS)
def test_open_set_metrics_match_reference(seed, threshold):
    dets, gts = random_scene(seed)
    match = match_known_detections(dets, gts, threshold)
    ose = absolute_open_set_error(match, gts, threshold)
    assert ose == a_ose_ref(dets, gts, threshold)
    assert wilderness_impact(match, ose) == pytest.approx(wi_ref(dets, gts, threshold), abs=1e-12)
    known_classes = sorted({g.label.class_id for g in gts if g.label.is_known})
    assert list(match.ap) == known_classes
    for c in known_classes:
        want = ap_ref(
            [d for d in dets if d.label.is_known and d.label.class_id == c],
            [g for g in gts if g.label.is_known and g.label.class_id == c],
            threshold,
        )
        assert match.ap[c] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# assignment


def test_hungarian_hand_example():
    pairs = hungarian_assign(np.array([[0.9, 0.1], [0.2, 0.8]]))
    assert pairs == [(0, 0), (1, 1)]


def test_hungarian_identity_matrix():
    assert hungarian_assign(np.eye(4)) == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_hungarian_single_row():
    assert hungarian_assign(np.array([[0.1, 0.7, 0.2]])) == [(0, 1)]


def test_hungarian_empty():
    assert hungarian_assign(np.zeros((0, 3))) == []


@settings(max_examples=examples(300), deadline=None)
@given(st.integers(0, 100_000))
def test_hungarian_matches_brute_force(seed):
    g = np.random.default_rng(seed)
    gain = g.uniform(0, 1, size=(g.integers(1, 7), g.integers(1, 7)))
    pairs = hungarian_assign(gain)
    total = sum(gain[r, c] for r, c in pairs)
    want_total, _ = hungarian_ref(gain)
    assert total == pytest.approx(want_total, abs=1e-12)


@st.composite
def tie_heavy_gains(draw):
    """Wide, tall and square gains up to 8x8: small integers with many
    zeros, all zeros, or one constant."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    kind = draw(st.sampled_from(["sparse", "zero", "constant"]))
    if kind == "zero":
        return np.zeros(shape)
    if kind == "constant":
        return np.full(shape, float(draw(st.integers(1, 3))))
    entry = st.one_of(st.just(0), st.integers(0, 3))
    values = draw(st.lists(entry, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return np.array(values, dtype=float).reshape(shape)


@settings(max_examples=examples(500), deadline=None)
@given(tie_heavy_gains())
def test_hungarian_pairs_equal_scipy_under_ties(gain):
    # the [test] extra's oracle; the package itself never loads scipy
    from scipy.optimize import linear_sum_assignment

    n_rows, n_cols = gain.shape
    size = max(n_rows, n_cols)
    padded = np.zeros((size, size))
    padded[:n_rows, :n_cols] = gain
    rows, cols = linear_sum_assignment(padded, maximize=True)
    want = [(int(r), int(c)) for r, c in zip(rows, cols) if r < n_rows and c < n_cols]
    assert hungarian_assign(gain) == want


@pytest.mark.parametrize("gain", [np.ones(3), np.ones((2, 2, 2))])
def test_hungarian_rejects_non_matrix(gain):
    with pytest.raises(ValueError, match="must be 2-d"):
        hungarian_assign(gain)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hungarian_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="must be finite"):
        hungarian_assign(np.array([[0.5, bad], [0.1, 0.2]]))


# ---------------------------------------------------------------------------
# unknown-class metrics


def make_uc_fixture():
    """Two predicted unknown ids over two true unknown classes with the
    AP gain matrix [[0.9, ~0], [~0, 1.0]]-ish structure."""
    gts = [
        unknown_gt(0, 10, Box(0, 0, 4, 4)),
        unknown_gt(0, 11, Box(20, 0, 4, 4)),
    ]
    dets = [
        unknown_det(0, 3, Box(0, 0, 4, 4), 0.9),
        unknown_det(0, 4, Box(20, 0, 4, 4), 0.8),
    ]
    return dets, gts


def test_uc_map_needs_unknown_ground_truth():
    dets, _ = make_uc_fixture()
    with pytest.raises(ValueError):
        uc_map(dets, [known_gt(0, 0, Box(0, 0, 2, 2))], 0.5)


def test_uc_map_no_unknown_detections_is_zero():
    _, gts = make_uc_fixture()
    value, permutation = uc_map([], gts, 0.5)
    assert value == 0.0 and permutation == {}


def test_uc_map_perfect_two_class_fixture():
    dets, gts = make_uc_fixture()
    value, permutation = uc_map(dets, gts, 0.5)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert permutation == {3: 10, 4: 11}


def test_uc_recall_counts_matched_fraction():
    dets, gts = make_uc_fixture()
    gts = gts + [unknown_gt(1, 10, Box(0, 0, 4, 4)), unknown_gt(1, 11, Box(20, 0, 4, 4))]
    _, permutation = uc_map(dets, gts, 0.5)
    # 2 of 4 unknown objects matched
    assert uc_recall(dets, gts, permutation, 0.5) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=examples(150), deadline=None)
@given(st.integers(0, 10_000), THRESHOLDS)
@example(seed=146, threshold=0.0)  # two best assignments: gains [[0.25, 0.5], [0, 0.25]]
def test_uc_metrics_match_reference(seed, threshold):
    # the value is the best assignment's; where two assignments tie for it,
    # the two searches may pick either, so the recall is compared under the
    # package's
    dets, gts = random_scene(seed)
    if not any(g.label.is_unknown for g in gts):
        gts = gts + [unknown_gt(0, 9, Box(70, 70, 4, 4))]
    got_value, got_perm = uc_map(dets, gts, threshold)
    want_value, _ = uc_map_ref(dets, gts, threshold)
    assert got_value == pytest.approx(want_value, abs=1e-12)
    got_recall = uc_recall(dets, gts, got_perm, threshold)
    want_recall = uc_recall_ref(gts=gts, dets=dets, permutation=got_perm, iou_threshold=threshold)
    assert got_recall == pytest.approx(want_recall, abs=1e-12)


@settings(max_examples=examples(60), deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10))
def test_uc_metrics_invariant_to_relabeling_predicted_ids(seed, shift):
    import dataclasses

    dets, gts = random_scene(seed)
    if not any(g.label.is_unknown for g in gts):
        gts = gts + [unknown_gt(0, 9, Box(70, 70, 4, 4))]
    relabeled = [
        dataclasses.replace(d, label=ClassLabel.unknown(d.label.class_id + shift))
        if d.label.is_unknown
        else d
        for d in dets
    ]
    v1, p1 = uc_map(dets, gts, 0.5)
    v2, p2 = uc_map(relabeled, gts, 0.5)
    assert v1 == pytest.approx(v2, abs=1e-12)
    assert uc_recall(dets, gts, p1, 0.5) == pytest.approx(
        uc_recall(relabeled, gts, p2, 0.5), abs=1e-12
    )


# ---------------------------------------------------------------------------
# evaluate


def oracle_detections(gts):
    """Perfect detections: true boxes, true labels, score 1."""
    return [
        Detection(image_id=g.image_id, label=g.label, box=g.box, score=1.0) for g in gts
    ]


def test_evaluate_empty_detections():
    gts = [known_gt(0, 0, Box(0, 0, 2, 2)), unknown_gt(0, 5, Box(10, 0, 2, 2))]
    report = evaluate(gts, [], EvalConfig())
    assert report.map_known == 0.0
    assert report.a_ose == 0
    assert report.uc_map == 0.0


def test_evaluate_oracle_detections_all_perfect():
    gts = [
        known_gt(0, 0, Box(0, 0, 4, 4)),
        known_gt(0, 1, Box(10, 0, 4, 4)),
        unknown_gt(0, 5, Box(20, 0, 4, 4)),
        unknown_gt(1, 6, Box(0, 10, 4, 4)),
    ]
    report = evaluate(gts, oracle_detections(gts), EvalConfig())
    assert report.map_known == 1.0
    assert report.wi == 0.0
    assert report.a_ose == 0
    assert report.uc_map == 1.0
    assert report.uc_recall == 1.0


def test_evaluate_applies_score_threshold_before_all_metrics():
    gts = [known_gt(0, 0, Box(0, 0, 4, 4)), unknown_gt(0, 5, Box(20, 0, 4, 4))]
    dets = [known_det(0, 0, Box(0, 0, 4, 4), 0.01)]
    report = evaluate(gts, dets, EvalConfig(score_threshold=0.05))
    assert report.map_known == 0.0


def test_evaluate_matches_scripted_reference_on_random_fixtures():
    for seed in range(40):
        dets, gts = random_scene(seed)
        if not any(g.label.is_unknown for g in gts):
            gts = gts + [unknown_gt(0, 9, Box(70, 70, 4, 4))]
        config = EvalConfig(iou_threshold=0.5, score_threshold=0.05)
        report = evaluate(gts, dets, config)
        visible = [d for d in dets if d.score >= config.score_threshold]
        known_classes = sorted({g.label.class_id for g in gts if g.label.is_known})
        per_class = [
            ap_ref(
                [d for d in visible if d.label.is_known and d.label.class_id == c],
                [g for g in gts if g.label.is_known and g.label.class_id == c],
                0.5,
            )
            for c in known_classes
        ]
        want_map = sum(per_class) / len(per_class) if per_class else 0.0
        assert report.map_known == pytest.approx(want_map, abs=1e-12)
        assert report.a_ose == a_ose_ref(visible, gts, 0.5)
        assert report.wi == pytest.approx(wi_ref(visible, gts, 0.5), abs=1e-12)
        want_uc, _ = uc_map_ref(visible, gts, 0.5)
        assert report.uc_map == pytest.approx(want_uc, abs=1e-12)


def test_evaluate_matches_each_known_class_once(monkeypatch):
    import ucowod.metrics as metrics

    dets, gts = random_scene(11, n_known=3)
    gts = gts + [unknown_gt(0, 9, Box(70, 70, 4, 4))]
    known_classes = {x.label.class_id for x in dets + gts if x.label.is_known}
    assert len(known_classes) >= 2
    entries, known_matches = [], []
    match_known, greedy_match = metrics.match_known_detections, metrics._greedy_match

    def counted_match_known(*args):
        entries.append(args)
        return match_known(*args)

    def counted_greedy_match(class_dets, class_gts, iou_threshold):
        if any(x.label.is_known for x in list(class_dets) + list(class_gts)):
            known_matches.append(1)
        return greedy_match(class_dets, class_gts, iou_threshold)

    monkeypatch.setattr(metrics, "match_known_detections", counted_match_known)
    monkeypatch.setattr(metrics, "_greedy_match", counted_greedy_match)
    evaluate(gts, dets, EvalConfig(score_threshold=0.0))
    assert len(entries) == 1
    assert len(known_matches) == len(known_classes)


def test_evaluate_raises_without_unknown_ground_truth():
    gts = [known_gt(0, 0, Box(0, 0, 2, 2))]
    with pytest.raises(ValueError):
        evaluate(gts, [], EvalConfig())
