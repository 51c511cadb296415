"""On-disk formats.

Ground truth is one JSON object::

    {"known_count": C, "unknown_slots": U,
     "annotations": [{"image_id": 0, "class_id": 3, "bbox": [cx, cy, w, h]}, ...]}

``class_id`` below ``known_count`` is a known class; at or above it is a
true unknown class id, which only the evaluator ever sees. Detections are
JSON Lines, one object per line::

    {"image_id": 0, "class_id": 4, "bbox": [cx, cy, w, h], "score": 0.9}

where a ``class_id`` in ``[known_count, known_count + unknown_slots)`` is a
predicted unknown slot. Reports and the synthetic dataset/model bundles are
plain JSON. All writers emit sorted keys so identical runs produce
byte-identical files; report floats are rounded to 6 decimal places.
``dataset.json`` and ``model.json`` are single-line JSON, written by the C
encoder that ``json.dumps`` runs when no indent is asked for; ``gt.json`` and
``report.json`` stay indented. The readers accept either layout.

The record tables below (``_GROUND_TRUTH``, ``_detection_table``,
``_dataset_table``, the head's ``_HEAD_SHAPES`` and, for a config, the field
types of ``RunConfig`` through ``_KINDS``) are the one statement of each
input format's keys, kinds and ranges. Every reader goes through ``_read``,
which checks each field over all records in one step and walks the records
in table order only when a check fails, to name the first offender. Input
that is not UTF-8 JSON is a schema violation too. A scene's proposals load
as row-aligned arrays; ground truth and detections as ``Box`` objects.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import typing
from itertools import chain, islice
from math import inf
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import Box, Detection, GroundTruthObject, label_for_class_id
from .harness import RunConfig, SyntheticDataset, SyntheticScene, ToyHead
from .losses import LossWeights
from .metrics import EvalReport
from .pseudo_label import UlpConfig

PathLike = Union[str, Path]

# what parsing raises for bytes that are not UTF-8 or JSON, or an integer past
# the 4300-digit conversion limit (ValueErrors, like SchemaError, so a catch of
# these wraps the parse alone), and for JSON nested too deep
_UNPARSABLE = (ValueError, RecursionError)


class SchemaError(ValueError):
    """A record failed validation; the message names the first offender."""


def _require(condition: bool, where: str, template: str, *args: object) -> None:
    """Raise unless ``condition`` holds; ``template.format(*args)`` is built
    only then, so a valid record pays for no ``repr``."""
    if not condition:
        raise SchemaError(f"{where}: {template.format(*args)}")


def _is_number(value: object) -> bool:
    # NaN, infinities and integers past the float range all fail the bound
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _number_array(values: list) -> Optional[np.ndarray]:
    """``values`` as a float array if each one passes ``_is_number``, else None."""
    types = set(map(type, values))
    # np.array(..., dtype=float) takes True and "0.5" as numbers, and an int
    # just past the float range rounds to a finite float
    if not types <= {int, float} or (int in types and not all(map(_is_number, values))):
        return None
    array = np.array(values, dtype=float)
    return array if np.isfinite(array).all() else None


def _read_json_object(path: PathLike) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except _UNPARSABLE as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    _require(isinstance(payload, dict), str(path), "top level must be a JSON object")
    return payload


@contextlib.contextmanager
def _rejected_as_schema(where: str) -> Iterator[None]:
    """Report a missing key, wrong type or bad value as a schema violation."""
    try:
        yield
    except SchemaError:
        raise
    except KeyError as exc:
        raise SchemaError(f"{where}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# Field kinds. Each takes a column, one key's values over all records, and
# returns it parsed, or raises ValueError with the message for the column's
# first value: the message ``_walk`` reports when it checks one record.


def _lists(values: list, name: str) -> list:
    if not set(map(type, values)) <= {list}:
        raise ValueError(f"{name} must be a list")
    return values


# a scalar kind's phrase in messages and its test of a column
_SCALARS = {
    "an object": lambda values: set(map(type, values)) <= {dict},
    "an integer": lambda values: set(map(type, values)) <= {int},
    "an integer or null": lambda values: set(map(type, values)) <= {int, type(None)},
    "a finite number": lambda values: _number_array(values) is not None,
    "a number in [0, 1]": lambda values: _number_array(values) is not None,
}
_INT = "an integer"


def _scalar(values: list, name: str, kind: str, low: float = -inf, high: float = inf, out_of_range: str = "") -> list:
    if not _SCALARS[kind](values):
        raise ValueError(f"{name} must be {kind}, got {values[0]!r}")
    if out_of_range and values and not low <= min(values) <= max(values) <= high:
        raise ValueError(out_of_range.format(values[0]))
    return values


def _bbox(values: list, name: str) -> np.ndarray:
    if not (set(map(type, values)) <= {list} and set(map(len, values)) <= {4}):
        raise ValueError(f"{name} must be a list of 4 numbers, got {values[0]!r}")
    boxes = _number_array(list(chain.from_iterable(values)))
    if boxes is None:
        raise ValueError(f"{name} values must be finite numbers, got {values[0]!r}")
    boxes = boxes.reshape(-1, 4)
    if not (boxes[:, 2:] > 0).all():
        w, h = boxes[0, 2:].tolist()
        raise ValueError(f"{name} sides must be positive, got w={w}, h={h}")
    return boxes


def _boxes(rows: np.ndarray) -> list[Box]:
    return list(map(Box, *rows.T.tolist()))


def _features(scenes: list, name: str, width: int) -> list[np.ndarray]:
    """Each scene's features, one row of ``width`` finite numbers per
    proposal. Rows numpy cannot read raise numpy's own message."""
    arrays = []
    for scene in scenes:
        raw, shape = scene["features"], (len(scene["proposals"]), width)
        features = np.array(raw, dtype=float)
        if features.size == 0:
            features = features.reshape(0, width)
        if features.shape != shape:
            raise ValueError(f"features must have shape {shape}, got {features.shape}")
        if _number_array(list(chain.from_iterable(raw))) is None:
            raise ValueError("features must be finite numbers")
        arrays.append(features)
    return arrays


def _closed_object(values: list, name: str, keys: typing.Collection[str]) -> dict:
    (value,) = values  # a model file holds one head
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"unknown {name}: {unknown}")
    return value


def _head_array(values: list, name: str, symbols: tuple, dims: dict) -> np.ndarray:
    """A non-empty array of finite numbers with one dimension per symbol; a
    symbol's size is set by ``dims`` or by the first array that uses it."""
    (raw,) = values  # a model file holds one head
    ndim = len(symbols)
    rows = [raw] if ndim == 1 else raw
    ok = isinstance(rows, list) and all(isinstance(row, list) and row for row in rows)
    array = _number_array(list(chain.from_iterable(rows))) if ok and len(set(map(len, rows))) == 1 else None
    if array is None:
        raise ValueError(f"{name} must be a non-empty {ndim}-d array of finite numbers")
    array = array.reshape((len(rows), -1)[2 - ndim :])
    expected = tuple(dims.setdefault(s, n) if isinstance(s, str) else s for s, n in zip(symbols, array.shape))
    if array.shape != expected:
        raise ValueError(f"{name} must have shape {expected}, got {array.shape}")
    return array


def _config(values: list, name: str) -> RunConfig:
    (value,) = values  # a dataset holds one config
    try:
        return config_from_dict(value)
    except SchemaError as exc:
        raise ValueError(str(exc)) from None


class _Field(NamedTuple):
    """One key of a record kind, checked by ``check(values, name, *args)``.
    With a ``table`` the key holds a list of nested records; its column is
    (list lengths, the nested records' columns), and unless ``unnamed`` is
    set, messages name those records by index."""

    key: Optional[str]  # None: the check reads the whole records
    check: Optional[Callable[..., object]]
    args: tuple = ()
    table: tuple = ()
    or_none: bool = False  # a missing key reads as None
    unnamed: bool = False  # a nested record's messages name only the outer record


def _columns(records: list, table: tuple, prefix: str) -> dict:
    columns = {}
    for field in table:
        values = records if field.key is None else [record[field.key] for record in records]
        if field.check:
            columns[field.key] = field.check(values, prefix + (field.key or "record"), *field.args)
        if field.table:
            nested = _columns(list(chain.from_iterable(values)), field.table, "")
            columns[field.key] = (list(map(len, values)), nested)
    return columns


def _walk(record: object, table: tuple, where: str, prefix: str) -> None:
    """Raise for the first field of ``record`` that fails, in table order."""
    with _rejected_as_schema(where):
        for field in table:
            name = prefix + (field.key or "record")
            if field.key is None:
                value = record
            elif field.or_none:
                value = record.get(field.key)
            # an integer is tested with `in` before it is read, other keys are only
            # read: on a record that is not an object the two raise different errors
            elif field.args[:1] == (_INT,) and field.key not in record:
                raise KeyError(field.key)
            else:
                value = record[field.key]
            if field.check:
                field.check([value], name, *field.args)
            for index, item in enumerate(value if field.table else ()):
                _walk(item, field.table, where if field.unnamed else f"{where}: {name}[{index}]", "")


def _read(records: list, table: tuple, where: Callable[[int], str], prefix: str = "") -> dict:
    """The checked columns of ``table`` over ``records``. Only when a column
    fails are the records walked one by one, so that the SchemaError names
    the first offender; ``where(i)`` names record i and ``prefix`` goes
    before each key."""
    try:
        return _columns(records, table, prefix)
    except (LookupError, TypeError, ValueError, OverflowError):
        pass
    for index, record in enumerate(records):
        _walk(record, table, where(index), prefix)
    # a backstop: a kind rejects no column whose values it accepts one by one
    raise SchemaError(f"{where(0)}: the records fail a column check that each passes alone")


def _labels(class_ids: list, known_count: int) -> list:
    """One label per class id; equal ids share the label."""
    labels = {class_id: label_for_class_id(class_id, known_count) for class_id in set(class_ids)}
    return [labels[class_id] for class_id in class_ids]


_COUNT_RANGE = (_INT, 0, inf, "class counts must be non-negative")
_ANNOTATION = (
    _Field(None, _scalar, ("an object",)),
    _Field("image_id", _scalar, (_INT,)),
    _Field("class_id", _scalar, (_INT, 0, inf, "class_id must be non-negative, got {}")),
    _Field("bbox", _bbox, or_none=True),
)
_GROUND_TRUTH = (
    _Field("known_count", _scalar, _COUNT_RANGE),
    _Field("unknown_slots", _scalar, _COUNT_RANGE),
    _Field("annotations", _lists, table=_ANNOTATION, or_none=True),
)


def load_ground_truth(path: PathLike) -> tuple[list[GroundTruthObject], int, int]:
    """Read a ground-truth file; returns (objects, known_count, unknown_slots)."""
    columns = _read([_read_json_object(path)], _GROUND_TRUTH, lambda _: str(path))
    (known_count,), (unknown_slots,) = columns["known_count"], columns["unknown_slots"]
    records = columns["annotations"][1]
    labels, boxes = _labels(records["class_id"], known_count), _boxes(records["bbox"])
    return list(map(GroundTruthObject, records["image_id"], labels, boxes)), known_count, unknown_slots


def save_ground_truth(
    path: PathLike, gts: Sequence[GroundTruthObject], known_count: int, unknown_slots: int
) -> None:
    payload = {
        "known_count": known_count,
        "unknown_slots": unknown_slots,
        "annotations": [
            {
                "image_id": g.image_id,
                "class_id": g.label.class_id,
                "bbox": [round(v, 6) for v in (g.box.cx, g.box.cy, g.box.w, g.box.h)],
            }
            for g in gts
        ],
    }
    _dump_json(path, payload)


def _detection_table(n_classes: int) -> tuple:
    return (
        _Field(None, _scalar, ("an object",)),
        _Field("image_id", _scalar, (_INT,)),
        _Field("class_id", _scalar, (_INT, 0, n_classes - 1, f"class_id must lie in [0, {n_classes}), got {{}}")),
        _Field("bbox", _bbox, or_none=True),
        _Field("score", _scalar, ("a number in [0, 1]", 0.0, 1.0, "score must be a number in [0, 1], got {!r}")),
    )


# a detection file is checked this many records at a time, so that one
# chunk's parsed lines, not the whole file's, sit next to the detections
_CHUNK_RECORDS = 4096


def load_detections(path: PathLike, known_count: int, unknown_slots: int) -> list[Detection]:
    """Read a JSON Lines detection file. Predicted class ids must fit inside
    the known range plus the unknown slots. Each line is parsed on its own, so
    a line holding more or less than one JSON value is an error, reported
    after any schema error on an earlier line."""
    path = Path(path)
    table = _detection_table(known_count + unknown_slots)
    detections, records, line_numbers, failure = [], [], [], None

    def add_records() -> None:
        columns = _read(records, table, lambda i: f"{path}: line {line_numbers[i]}")
        labels = _labels(columns["class_id"], known_count)
        boxes, scores = _boxes(columns["bbox"]), map(float, columns["score"])
        detections.extend(map(Detection, columns["image_id"], labels, boxes, scores))
        records.clear()
        line_numbers.clear()

    with open(path, encoding="utf-8") as handle:
        try:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if line:
                    try:
                        records.append(json.loads(line))
                    except _UNPARSABLE as exc:
                        failure = (f"{path}: line {line_number}: not valid JSON ({exc})", exc)
                        break
                    line_numbers.append(line_number)
                if len(records) == _CHUNK_RECORDS:
                    add_records()
        except UnicodeDecodeError as exc:
            failure = (f"{path}: not valid JSON ({exc})", exc)
    add_records()
    if failure:
        raise SchemaError(failure[0]) from failure[1]
    return detections


def save_detections(path: PathLike, detections: Sequence[Detection]) -> None:
    with open(path, "w") as handle:
        for det in detections:
            record = {
                "image_id": det.image_id,
                "class_id": det.label.class_id,
                "bbox": [round(v, 6) for v in (det.box.cx, det.box.cy, det.box.w, det.box.h)],
                "score": round(det.score, 6),
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def report_to_dict(report: EvalReport, config_echo: dict) -> dict:
    payload = {
        "map_known": round(report.map_known, 6),
        "wi": round(report.wi, 6),
        "a_ose": report.a_ose,
        "uc_map": round(report.uc_map, 6),
        "uc_recall": round(report.uc_recall, 6),
        "permutation": {str(pred): true for pred, true in sorted(report.permutation.items())},
        "config_echo": config_echo,
    }
    if report.warnings:
        payload["warnings"] = list(report.warnings)
    return payload


def save_report(path: PathLike, report: EvalReport, config_echo: dict) -> None:
    _dump_json(path, report_to_dict(report, config_echo))


def _dump_json(path: PathLike, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# the kind of each config field type
_KINDS = {int: _INT, float: "a finite number", Optional[int]: "an integer or null"}


def _check_values(cls: type, values: dict, prefix: str = "") -> None:
    """Each value must have its field's type; the message names the dotted key."""
    hints = typing.get_type_hints(cls)
    _read([values], tuple(_Field(key, _scalar, (_KINDS[hints[key]],)) for key in values), lambda _: "config", prefix)


def config_from_dict(payload: dict) -> RunConfig:
    """Build a RunConfig from a (possibly partial) dictionary of overrides of
    its defaults."""
    _require(isinstance(payload, dict), "config", "must be an object, got {!r}", payload)
    payload = dict(payload)
    known_fields = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(payload) - known_fields)
    nested = {key: cls for key, cls in (("ulp", UlpConfig), ("weights", LossWeights)) if key in payload}
    for key, cls in nested.items():
        _require(isinstance(payload[key], dict), "config", "{} must be an object, got {!r}", key, payload[key])
        names = {f.name for f in dataclasses.fields(cls)}
        unknown += sorted(f"{key}.{name}" for name in set(payload[key]) - names)
    if unknown:
        raise SchemaError(f"unknown config keys: {unknown}")
    _check_values(RunConfig, {k: v for k, v in payload.items() if k not in nested})
    for key, cls in nested.items():
        _check_values(cls, payload[key], f"{key}.")
        with _rejected_as_schema(f"config.{key}"):
            payload[key] = cls(**payload[key])
    with _rejected_as_schema("config"):
        return RunConfig(**payload)


def load_config(path: PathLike) -> RunConfig:
    return config_from_dict(_read_json_object(path))


def _scene_to_dict(scene: SyntheticScene) -> dict:
    return {
        "image_id": scene.image_id,
        "proposals": [{"bbox": b, "objectness": o} for b, o in zip(scene.boxes.tolist(), scene.objectness.tolist())],
        "gts": [
            {"class_id": g.label.class_id, "bbox": [g.box.cx, g.box.cy, g.box.w, g.box.h]}
            for g in scene.gts
        ],
        "features": scene.features.tolist(),
    }


def save_dataset(path: PathLike, dataset: SyntheticDataset) -> None:
    """Write ``json.dumps(payload, sort_keys=True)`` and a newline, one scene
    at a time, so that only one scene's lists are held at once."""
    with open(path, "w") as handle:
        handle.write('{"config": ' + json.dumps(dataclasses.asdict(dataset.config), sort_keys=True))
        for split, scenes in (("test", dataset.test), ("train", dataset.train)):  # sorted keys
            handle.write(f', "{split}": [')
            for index, scene in enumerate(scenes):
                handle.write((", " if index else "") + json.dumps(_scene_to_dict(scene), sort_keys=True))
            handle.write("]")
        handle.write("}\n")


_PROPOSAL = (
    _Field("objectness", _scalar, ("a finite number", 0.0, 1.0, "objectness must lie in [0, 1], got {}")),
    _Field("bbox", _bbox),
)
_SCENE_GT = (
    _Field("class_id", _scalar, (_INT, 0, inf, "class id must be non-negative, got {}")),
    _Field("bbox", _bbox),
)


def _dataset_table(feature_dim: int) -> tuple:
    """The splits of a dataset, whose config sets the feature width."""
    scene = (
        _Field("image_id", _scalar, (_INT,)),
        _Field("proposals", _lists, table=_PROPOSAL, unnamed=True),
        _Field("gts", _lists, table=_SCENE_GT, unnamed=True),
        _Field(None, _features, (feature_dim,)),
    )
    return tuple(_Field(split, _lists, table=scene) for split in ("train", "test"))


def _scenes(columns: dict, known_classes: int) -> list[SyntheticScene]:
    """The scenes of one split, from its checked columns; the proposal
    columns are split by scene, row for row."""
    n_proposals, proposals = columns["proposals"]
    n_gts, gts = columns["gts"]
    ends = np.cumsum(n_proposals, dtype=int)[:-1]
    objectness = np.split(np.array(proposals["objectness"], dtype=float), ends)
    gts = iter(zip(_boxes(gts["bbox"]), _labels(gts["class_id"], known_classes)))
    scenes = zip(columns["image_id"], np.split(proposals["bbox"], ends), objectness, n_gts, columns[None])
    return [
        SyntheticScene(image_id, b, o, [GroundTruthObject(image_id, label, box) for box, label in islice(gts, m)], f)
        for image_id, b, o, m, f in scenes
    ]


def load_dataset(path: PathLike) -> SyntheticDataset:
    payload = _read_json_object(path)
    where = lambda _: str(path)  # noqa: E731
    config = _read([payload], (_Field("config", _config),), where)["config"]
    splits = _read([payload], _dataset_table(config.feature_dim), where)
    return SyntheticDataset(config=config, **{key: _scenes(splits[key][1], config.known_classes) for key in splits})


# array shapes of a head: F inputs, H hidden units, L logits
_HEAD_SHAPES = {
    "w_hidden": ("F", "H"),
    "b_hidden": ("H",),
    "w_cls": ("H", "L"),
    "b_cls": ("L",),
    "w_reg": ("H", 4),
    "b_reg": (4,),
}


def save_head(path: PathLike, head: ToyHead) -> None:
    # the arrays of _HEAD_SHAPES, in its order: each bias is its matrix's last row
    w1, w2, n = head.w1, head.w2, head.n_logits
    arrays = (w1[:-1], w1[-1], w2[:-1, :n], w2[-1, :n], w2[:-1, n:], w2[-1, n:])
    payload = {"arrays": {name: array.tolist() for name, array in zip(_HEAD_SHAPES, arrays)}}
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")


def load_head(path: PathLike, config: Optional[RunConfig] = None) -> ToyHead:
    """Read a head. Given the dataset's config, F must be its ``feature_dim``
    and L its ``head_width()``."""
    where = lambda _: str(path)  # noqa: E731
    arrays = _read([_read_json_object(path)], (_Field("arrays", _closed_object, (_HEAD_SHAPES,)),), where)["arrays"]
    dims = {} if config is None else {"F": config.feature_dim, "L": config.head_width()}
    table = tuple(_Field(key, _head_array, (symbols, dims)) for key, symbols in _HEAD_SHAPES.items())
    arrays = _read([arrays], table, where, "arrays.")
    w2 = np.block([[arrays["w_cls"], arrays["w_reg"]], [arrays["b_cls"], arrays["b_reg"]]])
    return ToyHead(np.vstack((arrays["w_hidden"], arrays["b_hidden"])), w2)
