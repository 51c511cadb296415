import numpy as np
import pytest
from hypothesis import given, strategies as st

from ucowod import (
    Box,
    ClassLabel,
    GroundTruthObject,
    LabelKind,
    iou,
    label_for_class_id,
    to_corners,
)

from reference import iou_ref

coords = st.floats(-50, 50, allow_nan=False)
sizes = st.floats(0.01, 40, allow_nan=False)


def boxes():
    return st.builds(Box, coords, coords, sizes, sizes)


def test_iou_identity():
    b = Box(1.0, 2.0, 3.0, 4.0)
    assert iou(b, b) == 1.0


def test_iou_hand_geometry():
    # intersection 2, union 6
    assert iou(Box(1, 1, 2, 2), Box(2, 1, 2, 2)) == pytest.approx(1 / 3, abs=1e-12)


def test_iou_disjoint():
    assert iou(Box(0, 0, 2, 2), Box(10, 10, 2, 2)) == 0.0


@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


@given(boxes(), boxes())
def test_iou_matches_reference(a, b):
    assert iou(a, b) == pytest.approx(iou_ref(a, b), abs=1e-12)


def test_to_corners_symmetric_box():
    assert to_corners(Box(0, 0, 2, 2)) == (-1, -1, 1, 1)


def test_to_corners_hand_arithmetic():
    assert to_corners(Box(5, 3, 4, 2)) == (3, 2, 7, 4)


def test_box_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Box(0, 0, 0, 1)
    with pytest.raises(ValueError):
        Box(0, 0, 1, -2)


def test_box_rejects_non_finite_values():
    nan, inf = float("nan"), float("inf")
    for values in ((nan, 0, 1, 1), (0, -inf, 1, 1), (0, 0, inf, 1), (0, 0, 1, nan)):
        with pytest.raises(ValueError, match="finite"):
            Box(*values)


def test_label_kinds_partition():
    k = ClassLabel.known(2)
    u = ClassLabel.unknown(5)
    bg = ClassLabel.background()
    for label in (k, u, bg):
        assert sum([label.is_known, label.is_unknown, label.is_background]) == 1
    assert k.kind is LabelKind.KNOWN
    assert u.kind is LabelKind.UNKNOWN
    assert bg.kind is LabelKind.BACKGROUND


def test_label_for_class_id_splits_on_known_count():
    assert label_for_class_id(2, known_count=3).is_known
    assert label_for_class_id(3, known_count=3).is_unknown
    assert label_for_class_id(7, known_count=3).class_id == 7


def test_ground_truth_rejects_background():
    with pytest.raises(ValueError):
        GroundTruthObject(image_id=0, label=ClassLabel.background(), box=Box(0, 0, 1, 1))
