import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucowod import (
    Box,
    UlpConfig,
    iou,
    select_pseudo_labels,
)

from reference import examples, pseudo_labels_ref

NO_BOXES = np.empty((0, 4))


def boxes(*rows):
    return np.array(rows, dtype=float).reshape(-1, 4)


def test_single_confident_proposal_is_promoted():
    out = select_pseudo_labels(boxes((0, 0, 2, 2)), np.array([0.9]), NO_BOXES, UlpConfig(delta=0.3))
    assert out.tolist() == [0]


def test_proposal_covering_known_annotation_is_excluded():
    box = (0, 0, 2, 2)
    out = select_pseudo_labels(boxes(box), np.array([0.99]), boxes(box), UlpConfig())
    assert out.tolist() == []


def test_empty_proposals():
    assert select_pseudo_labels(NO_BOXES, np.empty(0), boxes((0, 0, 2, 2)), UlpConfig()).tolist() == []


def test_no_proposals_or_no_known_boxes_give_an_empty_int_index_array():
    # the rows index a scene's arrays, so even an empty selection is an int array
    for known in (NO_BOXES, boxes((0, 0, 2, 2))):
        out = select_pseudo_labels(NO_BOXES, np.empty(0), known, UlpConfig())
        assert out.dtype.kind == "i" and out.shape == (0,)
    out = select_pseudo_labels(boxes((0, 0, 2, 2)), np.array([0.2]), NO_BOXES, UlpConfig(delta=0.3))
    assert out.dtype.kind == "i" and out.shape == (0,)


def test_ten_disjoint_proposals_top5_then_floor():
    # objectness 0.05, 0.15, ..., 0.95 on well-separated boxes: suppression and
    # the background filter keep everything, top-5 takes 0.55..0.95, and the
    # floor then decides between five (0.3) and three (0.7) survivors
    rows = boxes(*[(10.0 * i, 0, 2, 2) for i in range(10)])
    objectness = np.array([0.05 + 0.1 * i for i in range(10)])
    low = select_pseudo_labels(rows, objectness, NO_BOXES, UlpConfig(top_k=5, delta=0.3))
    high = select_pseudo_labels(rows, objectness, NO_BOXES, UlpConfig(top_k=5, delta=0.7))
    assert len(low) == 5
    # rank order: descending objectness
    assert high.tolist() == [9, 8, 7]
    assert rows[high, 0].tolist() == [90.0, 80.0, 70.0]


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
        (g.uniform(0, 40), g.uniform(0, 40), g.uniform(1, 8), g.uniform(1, 8), float(g.uniform(0, 1)))
        for _ in range(g.integers(0, 16))
    ]
    known = [(g.uniform(0, 40), g.uniform(0, 40), g.uniform(1, 8), g.uniform(1, 8)) for _ in range(g.integers(0, 4))]
    rows = np.array(proposals).reshape(-1, 5)
    return rows[:, :4], rows[:, 4], boxes(*known)


@settings(max_examples=examples(200), deadline=None)
@given(st.integers(0, 100_000))
def test_selection_invariants(seed):
    rows, objectness, known = random_problem(seed)
    config = UlpConfig(nms_threshold=0.3, top_k=5, delta=0.3)
    out = select_pseudo_labels(rows, objectness, known, config)

    assert out.dtype.kind == "i" and len(out) <= config.top_k
    assert out.tolist() == pseudo_labels_ref(rows, objectness, known, config).tolist()
    picked = [Box(*rows[i].tolist()) for i in out]
    for i, box in zip(out, picked):
        assert objectness[i] > config.delta
        assert all(iou(box, Box(*g)) < config.known_overlap_threshold for g in known.tolist())
    for a in range(len(picked)):
        for b in range(len(picked)):
            if a != b:
                assert iou(picked[a], picked[b]) <= config.nms_threshold


@settings(max_examples=examples(200), deadline=None)
@given(st.integers(0, 100_000))
def test_raising_floor_never_yields_more(seed):
    rows, objectness, known = random_problem(seed)
    low = select_pseudo_labels(rows, objectness, known, UlpConfig(delta=0.3))
    high = select_pseudo_labels(rows, objectness, known, UlpConfig(delta=0.7))
    assert len(high) <= len(low)
    # and the high-floor selection is a subset of the low-floor one
    assert set(high.tolist()) <= set(low.tolist())
