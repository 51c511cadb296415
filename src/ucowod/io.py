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
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import typing
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .core import Box, Detection, GroundTruthObject, Proposal, label_for_class_id
from .harness import RunConfig, SyntheticDataset, SyntheticScene, ToyHead
from .losses import LossWeights
from .metrics import EvalReport
from .pseudo_label import UlpConfig

PathLike = Union[str, Path]


class SchemaError(ValueError):
    """A record failed validation; the message names the first offender."""


def _require(condition: bool, where: str, template: str, *args: object) -> None:
    """Raise unless ``condition`` holds; ``template.format(*args)`` is built
    only then, so a valid record pays for no ``repr``."""
    if not condition:
        raise SchemaError(f"{where}: {template.format(*args)}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
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


def _field(record: dict, key: str, where: str) -> object:
    _require(key in record, where, "missing key {!r}", key)
    return record[key]


def _parse_bbox(raw: object, where: str) -> Box:
    _require(isinstance(raw, list) and len(raw) == 4, where, "bbox must be a list of 4 numbers, got {!r}", raw)
    _require(all(_is_number(v) for v in raw), where, "bbox values must be finite numbers, got {!r}", raw)
    cx, cy, w, h = (float(v) for v in raw)
    _require(w > 0 and h > 0, where, "bbox sides must be positive, got w={}, h={}", w, h)
    return Box(cx, cy, w, h)


def _parse_int(record: dict, key: str, where: str) -> int:
    value = _field(record, key, where)
    _require(_is_int(value), where, "{} must be an integer, got {!r}", key, value)
    return value


def load_ground_truth(path: PathLike) -> tuple[list[GroundTruthObject], int, int]:
    """Read a ground-truth file; returns (objects, known_count, unknown_slots)."""
    payload = _read_json_object(path)
    where = str(path)
    known_count = _parse_int(payload, "known_count", where)
    unknown_slots = _parse_int(payload, "unknown_slots", where)
    _require(known_count >= 0 and unknown_slots >= 0, where, "class counts must be non-negative")
    _require(isinstance(payload.get("annotations"), list), where, "annotations must be a list")
    objects = []
    for index, record in enumerate(payload["annotations"]):
        record_where = f"{path}: annotations[{index}]"
        _require(isinstance(record, dict), record_where, "record must be an object, got {!r}", record)
        image_id = _parse_int(record, "image_id", record_where)
        class_id = _parse_int(record, "class_id", record_where)
        _require(class_id >= 0, record_where, "class_id must be non-negative, got {}", class_id)
        box = _parse_bbox(record.get("bbox"), record_where)
        objects.append(GroundTruthObject(image_id, label_for_class_id(class_id, known_count), box))
    return objects, known_count, unknown_slots


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


def load_detections(path: PathLike, known_count: int, unknown_slots: int) -> list[Detection]:
    """Read a JSON Lines detection file. Predicted class ids must fit inside
    the known range plus the unknown slots."""
    path = Path(path)
    detections = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {line_no}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{where}: not valid JSON ({exc})") from exc
            _require(isinstance(record, dict), where, "record must be an object, got {!r}", record)
            image_id = _parse_int(record, "image_id", where)
            class_id = _parse_int(record, "class_id", where)
            n_classes = known_count + unknown_slots
            _require(0 <= class_id < n_classes, where, "class_id must lie in [0, {}), got {}", n_classes, class_id)
            box = _parse_bbox(record.get("bbox"), where)
            score = _field(record, "score", where)
            _require(_is_number(score) and 0.0 <= score <= 1.0, where, "score must be a number in [0, 1], got {!r}", score)
            detections.append(
                Detection(image_id, label_for_class_id(class_id, known_count), box, float(score))
            )
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


_VALUE_CHECKS = {
    int: ("an integer", _is_int),
    float: ("a finite number", _is_number),
    Optional[int]: ("an integer or null", lambda v: v is None or _is_int(v)),
}


def _check_values(cls: type, values: dict, prefix: str = "") -> None:
    """Each value must have its field's type; the message names the dotted key."""
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        kind, ok = _VALUE_CHECKS[hints[key]]
        _require(ok(value), "config", "{}{} must be {}, got {!r}", prefix, key, kind, value)


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
        "proposals": [
            {
                "bbox": [p.box.cx, p.box.cy, p.box.w, p.box.h],
                "objectness": p.objectness,
            }
            for p in scene.proposals
        ],
        "gts": [
            {"class_id": g.label.class_id, "bbox": [g.box.cx, g.box.cy, g.box.w, g.box.h]}
            for g in scene.gts
        ],
        "features": scene.features.tolist(),
    }


def _scene_from_columns(payload: dict, config: RunConfig) -> Optional[SyntheticScene]:
    """The scene, with each column checked in one step: the objectness
    scores, the boxes of the proposals and ground truth together, the class
    ids and the features. None if a check fails."""
    image_id = payload["image_id"]
    records, gt_records, rows = payload["proposals"], payload["gts"], payload["features"]
    scores = [r["objectness"] for r in records]
    bboxes = [r["bbox"] for r in records] + [r["bbox"] for r in gt_records]
    class_ids = [r["class_id"] for r in gt_records]
    if not (_is_int(image_id) and set(map(type, class_ids)) <= {int} and _number_array(scores) is not None):
        return None
    if not (set(map(type, bboxes)) <= {list} and set(map(len, bboxes)) <= {4} and set(map(type, rows)) <= {list}):
        return None
    values = _number_array(list(chain.from_iterable(bboxes)))
    features = _number_array(list(chain.from_iterable(rows)))
    if values is None or features is None or len(set(map(len, rows))) > 1:
        return None
    values = values.reshape(-1, 4)
    # no values at all read as (0, F), as they do in the record walk
    features = features.reshape(len(rows), -1) if features.size else features.reshape(0, config.feature_dim)
    if not ((values[:, 2:] > 0).all() and features.shape == (len(records), config.feature_dim)):
        return None
    boxes = [Box(*box) for box in values.tolist()]
    proposals = [Proposal(image_id, box, score) for box, score in zip(boxes, scores)]
    gts = [
        GroundTruthObject(image_id, label_for_class_id(class_id, config.known_classes), box)
        for class_id, box in zip(class_ids, boxes[len(records) :])
    ]
    return SyntheticScene(image_id, proposals, gts, features)


def _check_scene_records(payload: dict, config: RunConfig, where: str) -> None:
    """Walk a scene record by record and raise for its first offender."""
    image_id = _parse_int(payload, "image_id", where)
    proposals = []
    for record in payload["proposals"]:
        objectness = record["objectness"]
        _require(_is_number(objectness), where, "objectness must be a finite number, got {!r}", objectness)
        proposals.append(Proposal(image_id, _parse_bbox(record["bbox"], where), objectness))
    for record in payload["gts"]:
        label = label_for_class_id(_parse_int(record, "class_id", where), config.known_classes)
        GroundTruthObject(image_id, label, _parse_bbox(record["bbox"], where))
    raw = payload["features"]
    features = np.array(raw, dtype=float)
    if features.size == 0:
        features = features.reshape(0, config.feature_dim)
    shape = (len(proposals), config.feature_dim)
    _require(features.shape == shape, where, "features must have shape {}, got {}", shape, features.shape)
    _require(all(_is_number(v) for row in raw for v in row), where, "features must be finite numbers")


def _scene_from_dict(payload: dict, config: RunConfig, where: str) -> SyntheticScene:
    """Only a scene that fails a column check is walked record by record,
    for the first offender's message."""
    try:
        scene = _scene_from_columns(payload, config)
    except (KeyError, TypeError, ValueError):
        scene = None
    if scene is None:
        with _rejected_as_schema(where):
            _check_scene_records(payload, config, where)
        # a backstop: the column checks reject nothing that the walk accepts
        raise SchemaError(f"{where}: scene failed the column checks")
    return scene


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


def load_dataset(path: PathLike) -> SyntheticDataset:
    payload = _read_json_object(path)
    raw_config = _field(payload, "config", str(path))
    try:
        config = config_from_dict(raw_config)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    splits = {}
    for split in ("train", "test"):
        scenes = _field(payload, split, str(path))
        _require(isinstance(scenes, list), str(path), "{} must be a list", split)
        where = f"{path}: {split}"
        splits[split] = [_scene_from_dict(s, config, f"{where}[{i}]") for i, s in enumerate(scenes)]
    return SyntheticDataset(config=config, **splits)


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
    payload = {"arrays": {name: getattr(head, name).tolist() for name in _HEAD_SHAPES}}
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")


def _head_array(raw: object, ndim: int, where: str, key: str) -> np.ndarray:
    """A non-empty 1-d or 2-d JSON array of finite numbers, as floats."""
    rows = [raw] if ndim == 1 else raw
    ok = isinstance(rows, list) and all(isinstance(row, list) and row for row in rows)
    ok = ok and len(set(map(len, rows))) == 1
    array = _number_array(list(chain.from_iterable(rows))) if ok else None
    _require(array is not None, where, "{} must be a non-empty {}-d array of finite numbers", key, ndim)
    return array.reshape((len(rows), -1)[2 - ndim :])


def load_head(path: PathLike, config: Optional[RunConfig] = None) -> ToyHead:
    """Read a head. Given the dataset's config, F must be its ``feature_dim``
    and L its ``head_width()``."""
    payload = _read_json_object(path)
    where = str(path)
    arrays = _field(payload, "arrays", where)
    _require(isinstance(arrays, dict), where, "arrays must be an object, got {!r}", arrays)
    unknown = sorted(set(arrays) - set(_HEAD_SHAPES))
    _require(not unknown, where, "unknown arrays: {}", unknown)
    dims = {} if config is None else {"F": config.feature_dim, "L": config.head_width()}
    parsed = {}
    for key, symbols in _HEAD_SHAPES.items():
        parsed[key] = _head_array(_field(arrays, key, where), len(symbols), where, f"arrays.{key}")
        shape = parsed[key].shape
        expected = tuple(dims.setdefault(s, n) if isinstance(s, str) else s for s, n in zip(symbols, shape))
        _require(shape == expected, where, "arrays.{} must have shape {}, got {}", key, expected, shape)
    return ToyHead(**parsed)
