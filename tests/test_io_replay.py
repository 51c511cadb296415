"""Single-field mutation replay of every input file kind.

Small valid copies of a config, ``dataset.json``, ``model.json``, ``gt.json``
and a detection file are mutated one field at a time, and each mutated file
is read by the package's loaders and by the record-by-record readers in
``reference.py``. Both must accept the same files, build the same objects
and reject the rest with the same exception and a byte-identical message.
"""

import json
import math

import pytest

import ucowod.io
from reference import (
    config_from_dict_ref,
    detection_table,
    load_config_ref,
    load_dataset_ref,
    load_detections_ref,
    load_ground_truth_ref,
    load_head_ref,
)
from ucowod import RunConfig, ToyHead, detect, generate_dataset
from ucowod.cli import main
from ucowod.io import (
    load_config,
    load_dataset,
    load_detections,
    load_ground_truth,
    load_head,
    save_dataset,
    save_detections,
    save_ground_truth,
    save_head,
)

CONFIG = RunConfig(seed=0, train_scenes=2, test_scenes=1)
KNOWN, SLOTS = CONFIG.known_classes, CONFIG.unknown_slots
_DELETE = object()


def documents(tmp_path):
    """The five valid inputs as parsed JSON; the detection file as a list of
    its records, one per line."""
    dataset = generate_dataset(CONFIG)
    head = ToyHead.create(feature_dim=CONFIG.feature_dim, hidden_dim=3, n_logits=CONFIG.head_width(), seed=0)
    save_dataset(tmp_path / "dataset.json", dataset)
    save_head(tmp_path / "model.json", head)
    save_ground_truth(tmp_path / "gt.json", dataset.test_ground_truth(), KNOWN, SLOTS)
    save_detections(tmp_path / "det.jsonl", detection_table(list(detect(head, dataset.test, CONFIG))[:4], KNOWN))
    docs = {name: json.loads((tmp_path / f"{name}.json").read_text()) for name in ("dataset", "model", "gt")}
    docs["det"] = [json.loads(line) for line in (tmp_path / "det.jsonl").read_text().splitlines()]
    docs["config"] = {"train_scenes": 2, "test_scenes": 1, "epochs": 3, "warmup_epochs": 1,
                      "ulp": {"delta": 0.3, "top_k": 5}, "weights": {"alpha_sim": 0.5}}
    return docs


def nodes(value, path=()):
    """Every position in ``value``; of a list only the first and last items."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for index in sorted({0, len(value) - 1}) if value else ():
            yield from nodes(value[index], path + (index,))


def mutations(value, in_object):
    """(name, replacement) pairs for one position; ``_DELETE`` drops the key."""
    swapped = [] if isinstance(value, dict) else {} if isinstance(value, list) else None
    out = [("type swap", swapped), ("bool", True), ("NaN", math.nan), ("inf", math.inf), ("-inf", -math.inf),
           ("10**400", 10**400), ("zero", 0), ("negative", -1), ("one", 1), ("above one", 1.5),
           ("last class id", KNOWN + SLOTS - 1), ("first id past the slots", KNOWN + SLOTS)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append(("number as string", str(value)))
    if isinstance(value, list):
        out += [("empty list", []), ("nested list", [value]), ("one short", value[:-1]), ("one long", value + value[-1:])]
    if isinstance(value, dict):
        out.append(("extra key", {**value, "zz_extra": 1}))
    if in_object:
        out.append(("missing key", _DELETE))
    return out


def replaced(doc, path, new):
    """``doc`` with the value at ``path`` replaced; containers on the path are copied."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    if not rest and new is _DELETE:
        del copy[head]
    else:
        copy[head] = replaced(doc[head], rest, new)
    return copy


def write(path, kind, doc):
    if kind == "det" and isinstance(doc, list):
        # a blank second line, so that line numbers and record indices differ
        text = "".join(json.dumps(record) + ("\n\n" if index == 0 else "\n") for index, record in enumerate(doc))
    else:
        text = json.dumps(doc) + "\n"
    path.write_text(text)


def summary(kind, loaded):
    """What a loader returned, in a form that compares types as well as values."""
    if kind == "dataset":
        scenes = [
            (s.image_id, [(str(a.dtype), a.shape, a.tolist()) for a in (s.boxes, s.objectness)], repr(s.gts),
             s.features.shape, s.features.tolist())
            for s in loaded.train + loaded.test
        ]
        return repr(loaded.config), scenes
    if kind == "model":
        return {name: (a.shape, a.tolist()) for name, a in vars(loaded).items()}
    if kind == "det":
        return repr(list(loaded))
    return repr(loaded)


READERS = {
    "config": (load_config, load_config_ref),
    "dataset": (load_dataset, load_dataset_ref),
    "model": (lambda p: load_head(p, CONFIG), lambda p: load_head_ref(p, CONFIG)),
    "gt": (load_ground_truth, load_ground_truth_ref),
    "det": (lambda p: load_detections(p, KNOWN, SLOTS), lambda p: load_detections_ref(p, KNOWN, SLOTS)),
}


def outcome(kind, reader, path):
    try:
        return "accepted", summary(kind, reader(path))
    except Exception as exc:  # noqa: BLE001 - the exception type is part of what is compared
        return type(exc).__name__, str(exc)


def cases(doc):
    for path, value in nodes(doc):
        in_object = bool(path) and isinstance(path[-1], str)
        for name, new in mutations(value, in_object):
            yield path, name, new


@pytest.mark.parametrize("kind", sorted(READERS))
def test_single_field_mutations_match_the_record_readers(tmp_path, kind):
    doc = documents(tmp_path)[kind]
    new_reader, ref_reader = READERS[kind]
    target = tmp_path / f"mutated_{kind}"
    counts = {"accepted": 0, "rejected": 0}
    for path, name, new in cases(doc):
        write(target, kind, replaced(doc, path, new))
        expected = outcome(kind, ref_reader, target)
        assert outcome(kind, new_reader, target) == expected, (path, name)
        counts["accepted" if expected[0] == "accepted" else "rejected"] += 1
    # the replay reaches both sides of every reader
    assert counts["accepted"] > 0 and counts["rejected"] > 0, counts


def test_replay_case_count(tmp_path):
    docs = documents(tmp_path)
    total = sum(len(list(cases(doc))) for doc in docs.values())
    assert total > 2000, total


# one rejected mutation per file kind, through the command line
CLI_CASES = {
    "config": (("epochs",), "x"),
    "dataset": (("train", 0, "proposals", 0, "bbox"), [1.0, 1.0, 2.0]),
    "model": (("arrays", "b_reg", 0), True),
    "gt": (("annotations", 0, "class_id"), -1),
    "det": ((0, "score"), math.nan),
}


@pytest.mark.parametrize("kind", sorted(CLI_CASES))
def test_a_rejected_mutation_exits_two_through_the_cli(tmp_path, kind, capsys):
    docs = documents(tmp_path)
    path, new = CLI_CASES[kind]
    files = {"dataset": tmp_path / "dataset.json", "model": tmp_path / "model.json", "gt": tmp_path / "gt.json",
             "det": tmp_path / "det.jsonl", "config": tmp_path / "config.json"}
    write(files[kind], kind, replaced(docs[kind], path, new))
    argv = {
        "config": ["simulate", "--out-dir", tmp_path / "run", "--config", files["config"]],
        "dataset": ["train", "--dataset", files["dataset"], "--out-dir", tmp_path / "run"],
        "model": ["refine", "--dataset", files["dataset"], "--model", files["model"], "--out-dir", tmp_path / "run"],
        "gt": ["eval", "--gt", files["gt"], "--det", files["det"], "--out", tmp_path / "r.json"],
        "det": ["eval", "--gt", files["gt"], "--det", files["det"], "--out", tmp_path / "r.json"],
    }[kind]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    _, message = outcome(kind, READERS[kind][1], files[kind])
    assert capsys.readouterr().err == f"error: schema violation: {message}\n"


def test_config_from_dict_matches_the_reference_on_non_objects():
    for payload in ([], None, 3, "x"):
        with pytest.raises(Exception) as new:
            ucowod.io.config_from_dict(payload)
        with pytest.raises(Exception) as ref:
            config_from_dict_ref(payload)
        assert (type(new.value), str(new.value)) == (type(ref.value), str(ref.value))


@pytest.mark.parametrize("chunk", [1, 2, ucowod.io._CHUNK_RECORDS])
def test_detection_lines_match_the_record_reader_in_chunks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(ucowod.io, "_CHUNK_RECORDS", chunk)
    good = json.dumps({"image_id": 0, "class_id": 1, "bbox": [5.0, 5.0, 2.0, 2.0], "score": 0.5})
    bad = json.dumps({"image_id": 0, "class_id": 1, "bbox": [5.0, 5.0, 2.0, 2.0], "score": 2})
    texts = (
        f"{good}\n\n{good}\n{bad}\n{{not json\n",  # a schema error before a line that is not JSON
        f"{good}\n{{not json\n{bad}\n",  # and after one
        f"{good}\n\n \n{good}\n[1, 2]\n",  # blank lines, then a record that is not an object
        f"{good} {good}\n",  # two values on one line
        f"{good}\n" * 5 + f"\n{bad}\n{good}\n",  # a schema error past the first chunks
        f"{good}\n" * 5,
        "",
    )
    path = tmp_path / "det.jsonl"
    for text in texts:
        path.write_text(text)
        new_reader, ref_reader = READERS["det"]
        assert outcome("det", new_reader, path) == outcome("det", ref_reader, path), text
