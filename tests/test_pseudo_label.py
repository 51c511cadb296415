import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucowod import (
    Box,
    ClassLabel,
    GroundTruthObject,
    Proposal,
    UlpConfig,
    iou,
    select_pseudo_labels,
)

from reference import examples


def proposal(box, objectness, image_id=0):
    return Proposal(image_id=image_id, box=box, objectness=objectness)


def known_gt(box, cls=0, image_id=0):
    return GroundTruthObject(image_id=image_id, label=ClassLabel.known(cls), box=box)


def test_single_confident_proposal_is_promoted():
    out = select_pseudo_labels([proposal(Box(0, 0, 2, 2), 0.9)], [], UlpConfig(delta=0.3))
    assert len(out) == 1
    assert out[0].label.is_unknown
    assert out[0].box == Box(0, 0, 2, 2)


def test_proposal_covering_known_annotation_is_excluded():
    box = Box(0, 0, 2, 2)
    out = select_pseudo_labels([proposal(box, 0.99)], [known_gt(box)], UlpConfig())
    assert out == []


def test_empty_proposals():
    assert select_pseudo_labels([], [known_gt(Box(0, 0, 2, 2))], UlpConfig()) == []


def test_ten_disjoint_proposals_top5_then_floor():
    # objectness 0.05, 0.15, ..., 0.95 on well-separated boxes: suppression and
    # the background filter keep everything, top-5 takes 0.55..0.95, and the
    # floor then decides between five (0.3) and three (0.7) survivors
    proposals = [
        proposal(Box(10.0 * i, 0, 2, 2), 0.05 + 0.1 * i) for i in range(10)
    ]
    low = select_pseudo_labels(proposals, [], UlpConfig(top_k=5, delta=0.3))
    high = select_pseudo_labels(proposals, [], UlpConfig(top_k=5, delta=0.7))
    assert len(low) == 5
    assert len(high) == 3
    kept_centers = sorted(g.box.cx for g in high)
    assert kept_centers == [70.0, 80.0, 90.0]


def test_unknown_id_is_stamped_on_outputs():
    out = select_pseudo_labels([proposal(Box(0, 0, 2, 2), 0.9)], [], UlpConfig(), unknown_id=7)
    assert out[0].label == ClassLabel.unknown(7)


def test_mixed_image_ids_rejected():
    with pytest.raises(ValueError):
        select_pseudo_labels(
            [proposal(Box(0, 0, 2, 2), 0.9, image_id=0)],
            [known_gt(Box(9, 9, 2, 2), image_id=1)],
            UlpConfig(),
        )


def test_unknown_labeled_ground_truth_rejected():
    bad = GroundTruthObject(image_id=0, label=ClassLabel.unknown(5), box=Box(5, 5, 2, 2))
    with pytest.raises(ValueError):
        select_pseudo_labels([proposal(Box(0, 0, 2, 2), 0.9)], [bad], UlpConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        UlpConfig(top_k=0)
    with pytest.raises(ValueError):
        UlpConfig(delta=1.5)
    with pytest.raises(ValueError):
        UlpConfig(nms_threshold=-0.1)


def random_problem(seed):
    g = np.random.default_rng(seed)
    proposals = [
        proposal(
            Box(g.uniform(0, 40), g.uniform(0, 40), g.uniform(1, 8), g.uniform(1, 8)),
            float(g.uniform(0, 1)),
        )
        for _ in range(g.integers(0, 16))
    ]
    gts = [
        known_gt(Box(g.uniform(0, 40), g.uniform(0, 40), g.uniform(1, 8), g.uniform(1, 8)))
        for _ in range(g.integers(0, 4))
    ]
    return proposals, gts


@settings(max_examples=examples(200), deadline=None)
@given(st.integers(0, 100_000))
def test_selection_invariants(seed):
    proposals, gts = random_problem(seed)
    config = UlpConfig(nms_threshold=0.3, top_k=5, delta=0.3)
    out = select_pseudo_labels(proposals, gts, config, unknown_id=3)

    assert len(out) <= config.top_k
    objectness_by_box = {}
    for p in proposals:
        key = (p.box.cx, p.box.cy, p.box.w, p.box.h)
        objectness_by_box[key] = max(objectness_by_box.get(key, 0.0), p.objectness)
    for item in out:
        assert item.label == ClassLabel.unknown(3)
        key = (item.box.cx, item.box.cy, item.box.w, item.box.h)
        assert objectness_by_box[key] > config.delta
        assert all(iou(item.box, g.box) < config.known_overlap_threshold for g in gts)
    for a in out:
        for b in out:
            if a is not b:
                assert iou(a.box, b.box) <= config.nms_threshold


@settings(max_examples=examples(200), deadline=None)
@given(st.integers(0, 100_000))
def test_raising_floor_never_yields_more(seed):
    proposals, gts = random_problem(seed)
    low = select_pseudo_labels(proposals, gts, UlpConfig(delta=0.3))
    high = select_pseudo_labels(proposals, gts, UlpConfig(delta=0.7))
    assert len(high) <= len(low)
    # and the high-floor selection is a subset of the low-floor one
    low_boxes = {(g.box.cx, g.box.cy, g.box.w, g.box.h) for g in low}
    for g in high:
        assert (g.box.cx, g.box.cy, g.box.w, g.box.h) in low_boxes
