import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ucowod import (
    Box,
    ClassLabel,
    Detection,
    DetectionTable,
    GroundTruthObject,
    LabelKind,
    iou,
    label_for_class_id,
    pairwise_iou,
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


def corner_probe_ious(box, probes):
    """``iou`` of ``box`` against each probe, after checking that ``pairwise_iou``
    gives the same row bit for bit. The corner arithmetic lives in these two."""
    values = [iou(box, p) for p in probes]
    assert pairwise_iou(Box.array([box]), Box.array(probes))[0].tobytes() == np.array(values).tobytes()
    return values


def test_to_corners_symmetric_box():
    # corners (-1, -1, 1, 1): a 2x2 probe centred on each corner overlaps it
    # by 1x1 (IoU 1/7); a probe one side-length away only touches an edge
    box = Box(0, 0, 2, 2)
    on_corners = [Box(x, y, 2, 2) for x in (-1, 1) for y in (-1, 1)]
    assert corner_probe_ious(box, on_corners) == [1.0 / 7.0] * 4
    touching = [Box(-2, 0, 2, 2), Box(2, 0, 2, 2), Box(0, -2, 2, 2), Box(0, 2, 2, 2)]
    assert corner_probe_ious(box, touching) == [0.0] * 4


def test_to_corners_hand_arithmetic():
    # corners (3, 2, 7, 4): each 2x2 probe centred on a corner overlaps by 1x1,
    # union 8 + 4 - 1 = 11; probes touching the edges x=3, x=7, y=2, y=4 score 0
    box = Box(5, 3, 4, 2)
    on_corners = [Box(x, y, 2, 2) for x in (3, 7) for y in (2, 4)]
    assert corner_probe_ious(box, on_corners) == [1.0 / 11.0] * 4
    touching = [Box(2, 3, 2, 2), Box(8, 3, 2, 2), Box(5, 1, 2, 2), Box(5, 5, 2, 2)]
    assert corner_probe_ious(box, touching) == [0.0] * 4


def wide_boxes():
    """Boxes from a thousandth to a thousand units a side, anywhere in +-1000."""
    spans = st.floats(-1e3, 1e3, allow_nan=False)
    return st.builds(Box, spans, spans, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))


UNIT = Box(0.0, 0.0, 2.0, 2.0)


@given(st.lists(wide_boxes(), max_size=6), st.lists(wide_boxes(), max_size=6))
@example([UNIT], [UNIT])  # identical
@example([UNIT], [Box(0.25, -0.5, 0.5, 0.5), Box(0.0, 0.0, 4.0, 4.0)])  # nested either way
# edge- and corner-touching
@example([UNIT], [Box(2.0, 0.0, 2.0, 2.0), Box(0.0, -2.0, 2.0, 2.0), Box(2.0, 2.0, 2.0, 2.0)])
@example([UNIT, Box(0.1, 0.2, 0.3, 0.4)], [Box(10.0, 10.0, 2.0, 2.0), Box(-7.5, 0.0, 1.0, 9.0)])  # disjoint
# extreme aspect ratios, crossing and apart
@example([Box(0.0, 0.0, 1e-3, 1e3), Box(5.0, 5.0, 1e3, 1e-3)], [Box(0.0, 0.0, 1e3, 1e-3), UNIT])
@example([Box(0.1, 0.2, 0.3, 0.7)], [])
def test_pairwise_iou_is_iou_bit_for_bit(a, b):
    matrix = pairwise_iou(Box.array(a), Box.array(b))
    expected = np.array([[iou(x, y) for y in b] for x in a]).reshape(len(a), len(b))
    assert matrix.shape == (len(a), len(b))
    # bytes, not ==: a -0.0 or a ulp of difference would show
    assert matrix.tobytes() == expected.tobytes()
    # batched: each box of a against a (len(a), len(b)) stack of b, one row each
    stacked = np.broadcast_to(Box.array(b), (len(a), len(b), 4))
    assert pairwise_iou(Box.array(a)[:, None], stacked)[:, 0].tobytes() == expected.tobytes()


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


def raised(build):
    """The type and message of what ``build()`` raises."""
    with pytest.raises(Exception) as caught:
        build()
    return type(caught.value), str(caught.value)


def test_detection_table_rejects_what_box_rejects_with_its_message():
    nan, inf = float("nan"), float("inf")
    good = [10.0, 20.0, 4.0, 6.0]
    for bad in ([inf, 20.0, 4.0, 6.0], [10.0, -inf, 4.0, 6.0], [10.0, 20.0, nan, 6.0], [nan, nan, nan, nan],
                [10.0, 20.0, 0.0, 6.0], [10.0, 20.0, 4.0, -1.0], [10.0, 20.0, inf, 6.0]):
        # the second row is the bad one: the rows before it pass
        table = lambda: DetectionTable(3, [0, 1], [1, 4], [good, bad], [0.5, 0.5])  # noqa: E731
        assert raised(table) == raised(lambda: Box(*bad)), bad


def test_detection_table_rejects_what_a_detection_or_label_rejects_with_its_message():
    box = Box(10.0, 20.0, 4.0, 6.0)
    for score in (float("nan"), 1.5, -0.25):
        table = lambda: DetectionTable(3, [0], [1], [[10.0, 20.0, 4.0, 6.0]], [score])  # noqa: E731
        assert raised(table) == raised(lambda: Detection(0, ClassLabel.known(1), box, score))
    negative_id = lambda: DetectionTable(3, [0], [-1], [[10.0, 20.0, 4.0, 6.0]], [0.5])  # noqa: E731
    assert raised(negative_id) == raised(lambda: label_for_class_id(-1, 3))
    with pytest.raises(ValueError, match="exactly one image id, class id, box and score"):
        DetectionTable(3, [0, 1], [1], [[10.0, 20.0, 4.0, 6.0]], [0.5])


def test_detection_table_iterates_as_detections():
    rows = [[10.0, 20.0, 4.0, 6.0], [1.5, 2.5, 0.5, 0.25], [7.0, 7.0, 1.0, 1.0]]
    table = DetectionTable(3, [0, 2**70, 5], np.array([4, 1, 4]), np.array(rows), np.array([0.5, 1.0, 0.0]))
    want = [
        Detection(0, ClassLabel.unknown(4), Box(*rows[0]), 0.5),
        Detection(2**70, ClassLabel.known(1), Box(*rows[1]), 1.0),
        Detection(5, ClassLabel.unknown(4), Box(*rows[2]), 0.0),
    ]
    assert len(table) == 3 and table == want and want == table and table == tuple(want)
    # plain Python numbers throughout, as a reader that built each Detection by hand would give
    assert repr(list(table)) == repr(want)
    first, _, last = table
    assert first.label is last.label  # one label per distinct class id
    assert table != want[:2] and table != [*want[:2], Detection(5, ClassLabel.unknown(4), Box(*rows[2]), 0.5)]
    assert table != "not detections"
    assert DetectionTable(3, [], [], np.empty((0, 4)), []) == []
