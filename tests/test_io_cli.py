import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ucowod import (
    Box,
    ClassLabel,
    Detection,
    EvalConfig,
    GroundTruthObject,
    RunConfig,
    ToyHead,
    evaluate,
    generate_dataset,
    train,
)
from ucowod.cli import main
from ucowod.io import (
    SchemaError,
    config_from_dict,
    load_dataset,
    load_detections,
    load_ground_truth,
    load_head,
    save_dataset,
    save_detections,
    save_ground_truth,
    save_head,
)

from reference import load_dataset_ref


def sample_gts():
    return [
        GroundTruthObject(0, ClassLabel.known(0), Box(10.0, 10.0, 4.0, 4.0)),
        GroundTruthObject(0, ClassLabel.known(1), Box(30.0, 10.0, 4.0, 4.0)),
        GroundTruthObject(0, ClassLabel.unknown(3), Box(50.0, 10.0, 4.0, 4.0)),
        GroundTruthObject(1, ClassLabel.unknown(4), Box(10.0, 30.0, 4.0, 4.0)),
    ]


def oracle_detections(gts):
    return [Detection(g.image_id, g.label, g.box, 1.0) for g in gts]


# ---------------------------------------------------------------------------
# file round-trips


def test_ground_truth_round_trip(tmp_path):
    path = tmp_path / "gt.json"
    gts = sample_gts()
    save_ground_truth(path, gts, known_count=3, unknown_slots=8)
    loaded, known_count, unknown_slots = load_ground_truth(path)
    assert (known_count, unknown_slots) == (3, 8)
    assert loaded == gts


def test_detections_round_trip(tmp_path):
    path = tmp_path / "det.jsonl"
    dets = oracle_detections(sample_gts())
    save_detections(path, dets)
    assert load_detections(path, known_count=3, unknown_slots=8) == dets


def test_detection_schema_violations(tmp_path):
    path = tmp_path / "det.jsonl"
    good = {"image_id": 0, "class_id": 1, "bbox": [1.0, 1.0, 2.0, 2.0], "score": 0.5}

    for corrupted in (
        {**good, "class_id": 99},  # outside known + unknown range
        {**good, "score": 1.5},
        {**good, "score": True},
        {**good, "bbox": [1.0, 1.0, 2.0]},
        {**good, "bbox": [1.0, 1.0, -2.0, 2.0]},
        {**good, "bbox": [float("nan"), 1.0, 2.0, 2.0]},
        {**good, "bbox": [1.0, float("inf"), 2.0, 2.0]},
        {**good, "bbox": [1.0, 1.0, 2.0, float("nan")]},
        {**good, "bbox": [10**400, 1.0, 2.0, 2.0]},
        {**good, "bbox": [True, 1.0, 2.0, 2.0]},
        {k: v for k, v in good.items() if k != "score"},
        {**good, "image_id": "zero"},
    ):
        path.write_text(json.dumps(corrupted) + "\n")
        with pytest.raises(SchemaError):
            load_detections(path, known_count=3, unknown_slots=8)

    path.write_text("{not json}\n")
    with pytest.raises(SchemaError, match="line 1"):
        load_detections(path, known_count=3, unknown_slots=8)


def test_ground_truth_schema_violations(tmp_path):
    path = tmp_path / "gt.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(SchemaError):
        load_ground_truth(path)
    path.write_text(json.dumps({"known_count": 3, "annotations": []}) + "\n")
    with pytest.raises(SchemaError, match="unknown_slots"):
        load_ground_truth(path)
    payload = {
        "known_count": 3,
        "unknown_slots": 8,
        "annotations": [{"image_id": 0, "class_id": 0, "bbox": [0, 0, 0, 2]}],
    }
    path.write_text(json.dumps(payload) + "\n")
    with pytest.raises(SchemaError, match=r"annotations\[0\]"):
        load_ground_truth(path)
    for bbox in ([float("nan"), 0, 2, 2], [0, float("-inf"), 2, 2], [0, 0, float("inf"), 2]):
        payload["annotations"][0]["bbox"] = bbox
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(SchemaError, match="finite"):
            load_ground_truth(path)


def test_missing_files_raise_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_ground_truth(tmp_path / "absent.json")
    with pytest.raises(FileNotFoundError):
        load_detections(tmp_path / "absent.jsonl", 3, 8)


def test_dataset_round_trip(tmp_path):
    config = RunConfig(seed=5, train_scenes=3, test_scenes=2)
    dataset = generate_dataset(config)
    path = tmp_path / "dataset.json"
    save_dataset(path, dataset)
    loaded = load_dataset(path)
    assert loaded.config == config
    for a, b in zip(loaded.train + loaded.test, dataset.train + dataset.test):
        assert a.image_id == b.image_id
        for got, want in ((a.boxes, b.boxes), (a.objectness, b.objectness)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert a.gts == b.gts
        assert np.array_equal(a.features, b.features)
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_head_round_trip(tmp_path):
    head = ToyHead.create(feature_dim=4, hidden_dim=6, n_logits=7, seed=3)
    path = tmp_path / "model.json"
    save_head(path, head)
    assert list(json.loads(path.read_text())) == ["arrays"]
    loaded = load_head(path)
    assert np.array_equal(loaded.w1, head.w1) and np.array_equal(loaded.w2, head.w2)
    assert sorted(json.loads(path.read_text())["arrays"]) == ["b_cls", "b_hidden", "b_reg", "w_cls", "w_hidden", "w_reg"]


def test_config_from_dict_overrides_and_rejects_unknown_keys():
    config = config_from_dict({"seed": 9, "ulp": {"delta": 0.7}, "weights": {"alpha_sim": 0.0}})
    assert config.seed == 9
    assert config.ulp.delta == 0.7
    assert config.weights.alpha_sim == 0.0
    assert config.epochs == RunConfig().epochs  # untouched default
    with pytest.raises(SchemaError, match="momentum"):
        config_from_dict({"momentum": 0.9})
    with pytest.raises(SchemaError, match=r"ulp\.bogus"):
        config_from_dict({"ulp": {"delta": 0.7, "bogus": 1}})
    for overrides, named in (
        ({"epochs": 2.0}, "epochs must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"eta": float("nan")}, "eta must be a finite number"),
        ({"warmup_epochs": "3"}, "warmup_epochs must be an integer or null"),
        ({"weights": {"alpha_sim": None}}, "weights.alpha_sim must be a finite number"),
    ):
        with pytest.raises(SchemaError, match=named):
            config_from_dict(overrides)
    assert config_from_dict({"warmup_epochs": None, "learning_rate": 2}).learning_rate == 2


# ---------------------------------------------------------------------------
# command line


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert "simulate" in capsys.readouterr().out


def test_eval_missing_file_exits_one(tmp_path, capsys):
    code = run_cli("eval", "--gt", tmp_path / "no.json", "--det", tmp_path / "no.jsonl",
                   "--out", tmp_path / "report.json")
    assert code == 1
    assert "missing file" in capsys.readouterr().err


def test_eval_threshold_out_of_range_is_a_usage_error(tmp_path, capsys):
    # checked while parsing: exit 2 naming the flag, before the missing --gt is read
    for flag, value in (("--iou-thresh", "1.5"), ("--iou-thresh", "nan"), ("--iou-thresh", "inf"),
                        ("--iou-thresh", "-0.1"), ("--iou-thresh", "0"), ("--score-thresh", "nan"),
                        ("--score-thresh", "2"), ("--score-thresh", "-1"), ("--iou-thresh", "abc")):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("eval", "--gt", tmp_path / "no.json", "--det", tmp_path / "no.jsonl",
                    "--out", tmp_path / "report.json", flag, value)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and "missing file" not in err
    assert not (tmp_path / "report.json").exists()


def test_eval_schema_violation_exits_two(tmp_path, capsys):
    gt_path = tmp_path / "gt.json"
    save_ground_truth(gt_path, sample_gts(), 3, 8)
    det_path = tmp_path / "det.jsonl"
    det_path.write_text('{"image_id": 0, "class_id": 99, "bbox": [1,1,2,2], "score": 0.5}\n')
    code = run_cli("eval", "--gt", gt_path, "--det", det_path, "--out", tmp_path / "r.json")
    assert code == 2
    assert "schema violation" in capsys.readouterr().err


def test_eval_oracle_detections_report(tmp_path, capsys):
    gts = sample_gts()
    gt_path, det_path, out_path = tmp_path / "gt.json", tmp_path / "det.jsonl", tmp_path / "r.json"
    save_ground_truth(gt_path, gts, 3, 8)
    save_detections(det_path, oracle_detections(gts))
    assert run_cli("eval", "--gt", gt_path, "--det", det_path, "--out", out_path) == 0
    report = json.loads(out_path.read_text())
    assert report["uc_map"] == 1.0
    assert report["map_known"] == 1.0
    assert report["wi"] == 0.0
    assert report["a_ose"] == 0
    assert report["uc_recall"] == 1.0
    assert report["config_echo"]["known_count"] == 3


def test_eval_report_matches_library_evaluate(tmp_path):
    g = np.random.default_rng(17)
    gts, dets = [], []
    for image_id in range(3):
        for _ in range(4):
            cls = int(g.integers(0, 5))
            box = Box(g.uniform(5, 60), g.uniform(5, 60), g.uniform(3, 9), g.uniform(3, 9))
            label = ClassLabel.known(cls) if cls < 3 else ClassLabel.unknown(cls)
            gts.append(GroundTruthObject(image_id, label, box))
            if g.random() < 0.8:
                jitter = Box(box.cx + g.normal(0, 1), box.cy + g.normal(0, 1), box.w, box.h)
                dets.append(Detection(image_id, label, jitter, float(g.uniform(0.1, 1.0))))
    gt_path, det_path, out_path = tmp_path / "gt.json", tmp_path / "det.jsonl", tmp_path / "r.json"
    save_ground_truth(gt_path, gts, 3, 8)
    save_detections(det_path, dets)
    assert run_cli("eval", "--gt", gt_path, "--det", det_path, "--out", out_path) == 0

    report = json.loads(out_path.read_text())
    loaded_gts, known_count, unknown_slots = load_ground_truth(gt_path)
    loaded_dets = load_detections(det_path, known_count, unknown_slots)
    direct = evaluate(loaded_gts, loaded_dets, EvalConfig())
    assert report["map_known"] == round(direct.map_known, 6)
    assert report["wi"] == round(direct.wi, 6)
    assert report["a_ose"] == direct.a_ose
    assert report["uc_map"] == round(direct.uc_map, 6)
    assert report["uc_recall"] == round(direct.uc_recall, 6)
    assert report["permutation"] == {str(k): v for k, v in direct.permutation.items()}


def test_simulate_writes_dataset_and_ground_truth(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"train_scenes": 3, "test_scenes": 2}))
    out_dir = tmp_path / "run"
    assert run_cli("simulate", "--out-dir", out_dir, "--seed", 4, "--config", config_path) == 0
    dataset = load_dataset(out_dir / "dataset.json")
    assert len(dataset.train) == 3 and len(dataset.test) == 2
    assert dataset.config.seed == 4
    gts, known_count, _ = load_ground_truth(out_dir / "gt.json")
    assert known_count == 3
    # gt.json rounds coordinates to 6 decimals; dataset.json keeps full precision
    full = dataset.test_ground_truth()
    assert len(gts) == len(full)
    for rounded_gt, full_gt in zip(gts, full):
        assert (rounded_gt.image_id, rounded_gt.label) == (full_gt.image_id, full_gt.label)
        for attr in ("cx", "cy", "w", "h"):
            assert getattr(rounded_gt.box, attr) == pytest.approx(
                getattr(full_gt.box, attr), abs=1e-6
            )


def test_invalid_config_key_via_cli_exits_two(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    for overrides, named in (
        ({"not_a_field": 1}, "not_a_field"),
        ({"ulp": {"bogus": 1}}, "ulp.bogus"),
        ({"weights": {"alpha_rpn": 1.0}}, "weights.alpha_rpn"),
        ({"refine_steps": 100}, "refine_steps"),
        ({"weights": {"alpha_cls": 1.0}}, "weights.alpha_cls"),
        ({"ulp": 0.5}, "ulp must be an object"),
        ({"weights": [1.0]}, "weights must be an object"),
        ({"epochs": "x"}, "epochs must be an integer"),
        ({"ulp": {"delta": "x"}}, "ulp.delta must be a finite number"),
        ({"epochs": 0}, "config: need at least one epoch"),
        ({"ulp": {"delta": 1.5}}, "config.ulp: delta must lie in [0, 1], got 1.5"),
        ({"eta": -0.1}, "config: eta must be non-negative, got -0.1"),
        ({"seed": -1}, "config: seed must be non-negative, got -1"),
        ({"feature_noise": -0.05}, "config: feature_noise must be non-negative, got -0.05"),
        ({"train_scenes": 0}, "config: need at least one training scene"),
        ({"test_scenes": 0}, "config: need at least one test scene"),
        ({"refine_clusters": 0}, "config: refine_clusters must be null or lie in [1, 8], got 0"),
        ({"refine_clusters": -2}, "config: refine_clusters must be null or lie in [1, 8], got -2"),
        ({"refine_clusters": 9}, "config: refine_clusters must be null or lie in [1, 8], got 9"),
        ({"learning_rate": -1.0}, "config: learning_rate must be positive, got -1.0"),
        ({"learning_rate": 0.0}, "config: learning_rate must be positive, got 0.0"),
        ({"iou_threshold": 0.5}, "iou_threshold"),
        ({"score_threshold": 0.05}, "score_threshold"),
        ({"weight_decay": 1e-3}, "weight_decay"),
    ):
        config_path.write_text(json.dumps(overrides))
        assert run_cli("simulate", "--out-dir", tmp_path / "run", "--config", config_path) == 2
        assert named in capsys.readouterr().err

    # eval takes no --seed, and train and refine no --config: argparse rejects them as usage errors
    for argv in (
        ["eval", "--gt", "gt.json", "--det", "det.jsonl", "--out", "r.json", "--seed", "0"],
        ["train", "--dataset", "dataset.json", "--out-dir", "run", "--config", "config.json"],
        ["refine", "--dataset", "dataset.json", "--model", "model.json", "--out-dir", "run", "--config", "config.json"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # a dataset.json written before a config key was removed names the file and the stale key
    out_dir = tmp_path / "old"
    config_path.write_text(json.dumps({"train_scenes": 2, "test_scenes": 1}))
    assert run_cli("simulate", "--out-dir", out_dir, "--config", config_path) == 0
    dataset_path = out_dir / "dataset.json"
    original = json.loads(dataset_path.read_text())
    for add_stale, named in (
        (lambda config: config["weights"].update(alpha_rpn=1.0), "weights.alpha_rpn"),
        (lambda config: config.update(lambda0=0.0), "lambda0"),
        (lambda config: config.update(iou_threshold=0.5), "iou_threshold"),
        (lambda config: config.update(score_threshold=0.05), "score_threshold"),
        (lambda config: config.update(weight_decay=1e-3), "weight_decay"),
    ):
        payload = json.loads(json.dumps(original))
        add_stale(payload["config"])
        dataset_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("train", "--dataset", dataset_path, "--out-dir", out_dir) == 2
        err = capsys.readouterr().err
        assert f"{dataset_path}: unknown config keys" in err and named in err

    # a negative seed in dataset.json is a schema violation naming the file; on
    # the command line it is a runtime failure with the same text
    payload = json.loads(json.dumps(original))
    payload["config"]["seed"] = -1
    dataset_path.write_text(json.dumps(payload))
    assert run_cli("train", "--dataset", dataset_path, "--out-dir", out_dir) == 2
    assert f"{dataset_path}: config: seed must be non-negative, got -1" in capsys.readouterr().err
    dataset_path.write_text(json.dumps(original))
    for stage in (["train"], ["refine", "--model", out_dir / "model.json"]):
        assert run_cli(*stage, "--dataset", dataset_path, "--out-dir", out_dir, "--seed", -3) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -3\n"


def small_run(tmp_path):
    """simulate + train on a tiny dataset; returns the run directory."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"train_scenes": 2, "test_scenes": 1, "epochs": 2}))
    out_dir = tmp_path / "run"
    assert run_cli("simulate", "--out-dir", out_dir, "--config", config_path) == 0
    assert run_cli("train", "--dataset", out_dir / "dataset.json", "--out-dir", out_dir) == 0
    return out_dir


def test_train_on_scene_without_proposals_exits_two(tmp_path, capsys):
    out_dir = small_run(tmp_path)
    dataset_path = out_dir / "dataset.json"
    payload = json.loads(dataset_path.read_text())
    del payload["train"][1]["proposals"]
    dataset_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("train", "--dataset", dataset_path, "--out-dir", out_dir) == 2
    assert "train[1]: missing key 'proposals'" in capsys.readouterr().err


@pytest.mark.parametrize("emptied", ["scenes", "proposals"])
def test_train_on_a_split_without_proposals_says_so(tmp_path, capsys, emptied):
    # no training row: neither an empty split nor scenes without proposals
    # reach an epoch, whose mean over no rows would read as divergence
    out_dir = small_run(tmp_path)
    dataset_path = out_dir / "dataset.json"
    payload = json.loads(dataset_path.read_text())
    if emptied == "scenes":
        payload["train"] = []
    for scene in payload["train"]:
        scene.update(proposals=[], features=[])
    dataset_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("train", "--dataset", dataset_path, "--out-dir", out_dir) == 1
    assert capsys.readouterr().err == "error: the training split holds no proposals\n"


def test_integer_objectness_loads_as_a_float_array(tmp_path):
    path = tmp_path / "dataset.json"
    save_dataset(path, generate_dataset(RunConfig(seed=1, train_scenes=2, test_scenes=1)))
    payload = json.loads(path.read_text())
    payload["train"][0]["proposals"][0]["objectness"] = 1
    payload["train"][0]["proposals"][1]["objectness"] = 0
    path.write_text(json.dumps(payload))
    scene, want = load_dataset(path).train[0], load_dataset_ref(path).train[0]
    assert scene.objectness.dtype == want.objectness.dtype == np.float64
    assert scene.objectness[:2].tolist() == [1.0, 0.0]
    assert np.array_equal(scene.objectness, want.objectness) and np.array_equal(scene.boxes, want.boxes)


def test_train_on_non_finite_or_boolean_dataset_box_exits_two(tmp_path, capsys):
    out_dir = small_run(tmp_path)
    dataset_path = out_dir / "dataset.json"
    original = json.loads(dataset_path.read_text())

    def set_bbox(scene, key, bad):
        scene[key][0]["bbox"][0] = bad

    def set_feature(scene, row, bad):
        scene["features"][row][0] = bad

    for split, mutate, named in (
        ("train", lambda s: set_bbox(s, "proposals", float("nan")), "bbox values must be finite numbers"),
        ("test", lambda s: set_bbox(s, "gts", True), "bbox values must be finite numbers"),
        ("train", lambda s: s.update(image_id=True), "image_id must be an integer, got True"),
        ("train", lambda s: s["proposals"][0].update(objectness=True), "objectness must be a finite number"),
        ("test", lambda s: s["gts"][0].update(class_id=True), "class_id must be an integer, got True"),
        ("train", lambda s: set_feature(s, 0, float("nan")), "features must be finite numbers"),
        ("test", lambda s: set_feature(s, 1, float("nan")), "features must be finite numbers"),
        ("train", lambda s: set_feature(s, 0, True), "features must be finite numbers"),
        ("train", lambda s: set_feature(s, 0, "0.5"), "features must be finite numbers"),
        ("train", lambda s: set_feature(s, 0, 10**400), "int too large to convert to float"),
        ("train", lambda s: s.update(features=[row + [0.0] for row in s["features"]]), "features must have shape ("),
        ("test", lambda s: s["features"].pop(), "features must have shape ("),
        ("train", lambda s: s["proposals"][0]["bbox"].__setitem__(2, 0.0), "bbox sides must be positive, got w=0.0"),
        ("train", lambda s: set_feature(s, 0, float("inf")), "features must be finite numbers"),
        ("train", lambda s: s["proposals"][0].update(objectness=float("nan")),
         "objectness must be a finite number, got nan"),
        ("train", lambda s: s["features"][0].pop(), ""),  # numpy's own message follows
        # not lists: read as a scene without objects or proposals, they would train
        ("test", lambda s: s.update(gts={}), "gts must be a list"),
        ("train", lambda s: s.update(gts=""), "gts must be a list"),
        ("train", lambda s: s.update(proposals={}, features=[[]]), "proposals must be a list"),
    ):
        payload = json.loads(json.dumps(original))
        mutate(payload[split][0])
        dataset_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("train", "--dataset", dataset_path, "--out-dir", out_dir) == 2
        err = capsys.readouterr().err
        assert f"{dataset_path}: {split}[0]: {named}" in err


def test_readme_config_table_documents_only_config_keys():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Configuration highlights")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([\w.]+)`", row.split("|")[1])]
    assert len(keys) >= len(rows) > 0
    defaults = dataclasses.asdict(RunConfig())
    for key in keys:
        # each key is overridden with its own default, so only an unknown key can fail
        head, _, nested = key.partition(".")
        value = defaults.get(head)
        payload = {head: {nested: (value or {}).get(nested)} if nested else value}
        try:
            config_from_dict(payload)
        except SchemaError as exc:
            pytest.fail(f"README documents {key!r}, which the config rejects: {exc}")


def test_readme_quick_start_prints_documented_lines(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Quick start (CLI)")[1].split("```sh\n")[1].split("```")[0]
    lines = [line for line in block.splitlines() if line]
    steps = list(zip(lines[::2], lines[1::2]))
    assert [command.split()[:2] for command, _ in steps] == [
        ["ucowod", stage] for stage in ("simulate", "train", "refine", "eval")
    ]
    monkeypatch.chdir(tmp_path)
    for command, comment in steps:
        assert comment.startswith("# ")
        assert main(shlex.split(command)[1:]) == 0
        assert capsys.readouterr().out.startswith(comment[2:])


def test_same_seed_chain_writes_byte_identical_artifacts(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"train_scenes": 6, "test_scenes": 4, "epochs": 20}))

    def chain(out_dir):
        assert run_cli("simulate", "--out-dir", out_dir, "--config", config_path, "--seed", 3) == 0
        assert run_cli("train", "--dataset", out_dir / "dataset.json", "--out-dir", out_dir) == 0
        assert run_cli("refine", "--dataset", out_dir / "dataset.json", "--model", out_dir / "model.json",
                       "--out-dir", out_dir) == 0
        assert run_cli("eval", "--gt", out_dir / "gt.json", "--det", out_dir / "detections_refined.jsonl",
                       "--out", out_dir / "report.json") == 0
        return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}

    first, second = chain(tmp_path / "a"), chain(tmp_path / "b")
    assert sorted(first) == [
        "dataset.json", "detections.jsonl", "detections_refined.jsonl", "gt.json", "model.json", "report.json",
    ]
    assert first == second


def test_train_runs_with_the_config_stored_in_the_dataset(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"epochs": 20, "learning_rate": 0.5}))
    out_dir = tmp_path / "run"
    assert run_cli("simulate", "--out-dir", out_dir, "--config", config_path) == 0
    assert run_cli("train", "--dataset", out_dir / "dataset.json", "--out-dir", out_dir) == 0
    dataset = load_dataset(out_dir / "dataset.json")
    assert (dataset.config.epochs, dataset.config.learning_rate) == (20, 0.5)
    save_head(tmp_path / "library.json", train(dataset.config, dataset).head)
    assert (out_dir / "model.json").read_bytes() == (tmp_path / "library.json").read_bytes()


def test_artifacts_with_removed_keys_load_and_give_identical_outputs(tmp_path):
    # older dataset.json ground-truth records carried image_id and is_pseudo,
    # and older model.json files learning_rate and weight_decay; all four are
    # ignored. Older versions also wrote both files indented
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"train_scenes": 6, "test_scenes": 4, "epochs": 20}))

    def finish_chain(out_dir):
        assert run_cli("refine", "--dataset", out_dir / "dataset.json", "--model", out_dir / "model.json",
                       "--out-dir", out_dir) == 0
        assert run_cli("eval", "--gt", new / "gt.json", "--det", out_dir / "detections_refined.jsonl",
                       "--out", out_dir / "report.json") == 0

    new = tmp_path / "new"
    assert run_cli("simulate", "--out-dir", new, "--config", config_path, "--seed", 3) == 0
    assert run_cli("train", "--dataset", new / "dataset.json", "--out-dir", new) == 0
    finish_chain(new)

    payload = json.loads((new / "dataset.json").read_text())
    model = json.loads((new / "model.json").read_text())
    with_removed_keys = json.loads(json.dumps(payload))
    for scene in with_removed_keys["train"] + with_removed_keys["test"]:
        for record in scene["gts"]:
            record.update(image_id=scene["image_id"], is_pseudo=False)
    with_removed_keys["train"][0]["gts"][0]["image_id"] = 999  # a stale id is never read
    inputs = {
        "removed_keys": (
            json.dumps(with_removed_keys), json.dumps({**model, "learning_rate": 1.0, "weight_decay": 1e-3})
        ),
        "indented": tuple(json.dumps(value, indent=2, sort_keys=True) + "\n" for value in (payload, model)),
    }
    for layout, (dataset_text, model_text) in inputs.items():
        old = tmp_path / layout
        old.mkdir()
        (old / "dataset.json").write_text(dataset_text)
        assert run_cli("train", "--dataset", old / "dataset.json", "--out-dir", old) == 0
        assert (old / "model.json").read_bytes() == (new / "model.json").read_bytes(), layout
        (old / "model.json").write_text(model_text)
        finish_chain(old)
        for name in ("detections.jsonl", "detections_refined.jsonl", "report.json"):
            assert (old / name).read_bytes() == (new / name).read_bytes(), (layout, name)


def test_chain_agrees_under_one_and_two_blas_threads(tmp_path):
    # seed 1 trains chaotically at the default config: last-bit differences
    # in summation order grow into different detections, if any arise
    src = Path(__file__).resolve().parents[1] / "src"

    def chain(threads):
        out_dir = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        for argv in (
            ["simulate", "--out-dir", out_dir, "--seed", 1],
            ["train", "--dataset", out_dir / "dataset.json", "--out-dir", out_dir],
            ["refine", "--dataset", out_dir / "dataset.json", "--model", out_dir / "model.json", "--out-dir", out_dir],
            ["eval", "--gt", out_dir / "gt.json", "--det", out_dir / "detections_refined.jsonl",
             "--out", out_dir / "report.json"],
        ):
            done = subprocess.run(
                [sys.executable, "-m", "ucowod", *map(str, argv)], capture_output=True, text=True, env=env, timeout=300
            )
            assert done.returncode == 0, done.stderr
        return out_dir

    one, two = chain(1), chain(2)
    for name in ("detections.jsonl", "detections_refined.jsonl", "report.json"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    model_one, model_two = (json.loads((out_dir / "model.json").read_text()) for out_dir in (one, two))
    arrays_one, arrays_two = model_one.pop("arrays"), model_two.pop("arrays")
    assert model_one == model_two and arrays_one.keys() == arrays_two.keys()
    for name, values in arrays_one.items():
        assert np.allclose(values, arrays_two[name], rtol=0.0, atol=1e-9), name

COLD_START_CHAIN = """
import json, sys
from pathlib import Path
from ucowod.cli import main

out = Path(sys.argv[1])
out.mkdir()
(out / "config.json").write_text(json.dumps({"epochs": 20}))
codes = [
    main(["simulate", "--out-dir", str(out), "--config", str(out / "config.json")]),
    main(["train", "--dataset", str(out / "dataset.json"), "--out-dir", str(out)]),
    main(["refine", "--dataset", str(out / "dataset.json"), "--model", str(out / "model.json"), "--out-dir", str(out)]),
]
codes.append(main(["eval", "--gt", str(out / "gt.json"), "--det", str(out / "detections_refined.jsonl"),
                   "--out", str(out / "report.json")]))
scipy = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_no_stage_imports_scipy(tmp_path):
    # a fresh interpreter: this pytest process has imported scipy already
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START_CHAIN, str(tmp_path / "run")], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    assert result["scipy"] == []


def test_refine_with_malformed_model_exits_two(tmp_path, capsys):
    # the default config: F = feature_dim = 16 inputs, 128 hidden units, L = head_width() = 12 logits
    out_dir = small_run(tmp_path)
    model_path = out_dir / "model.json"
    original = json.loads(model_path.read_text())

    def set_first(name, bad):
        def mutate(payload):
            array = payload["arrays"][name]
            (array[0] if isinstance(array[0], list) else array)[0] = bad
        return mutate

    def reshape(name, transform):
        return lambda payload: payload["arrays"].update({name: transform(payload["arrays"][name])})

    for mutate, named in (
        (set_first("w_cls", float("nan")), "arrays.w_cls must be a non-empty 2-d array of finite numbers"),
        (set_first("b_reg", True), "arrays.b_reg must be a non-empty 1-d array of finite numbers"),
        (set_first("w_reg", "0.5"), "arrays.w_reg must be a non-empty 2-d array of finite numbers"),
        (reshape("b_cls", lambda a: [a]), "arrays.b_cls must be a non-empty 1-d array"),
        (reshape("b_reg", lambda a: None), "arrays.b_reg must be a non-empty 1-d array"),
        (reshape("w_cls", lambda a: [a[0]] + [row[:-1] for row in a[1:]]), "arrays.w_cls must be a non-empty 2-d"),
        (reshape("w_hidden", lambda a: a[:-1]), "arrays.w_hidden must have shape (16, 128), got (15, 128)"),
        (reshape("b_hidden", lambda a: a[:-1]), "arrays.b_hidden must have shape (128,), got (127,)"),
        (reshape("w_cls", lambda a: [row[:-1] for row in a]), "arrays.w_cls must have shape (128, 12), got (128, 11)"),
        (reshape("w_reg", lambda a: [row + [0.0] for row in a]), "arrays.w_reg must have shape (128, 4), got (128, 5)"),
        (lambda p: p["arrays"].update(w_extra=[0.0]), "unknown arrays: ['w_extra']"),
        (lambda p: p["arrays"].pop("b_cls"), "missing key 'b_cls'"),
        (lambda p: p.update(arrays=[]), "arrays must be an object, got []"),
        (lambda p: p.pop("arrays"), "missing key 'arrays'"),
        (set_first("w_hidden", 10**400), "arrays.w_hidden must be a non-empty 2-d array of finite numbers"),
        (set_first("w_hidden", float("inf")), "arrays.w_hidden must be a non-empty 2-d array of finite numbers"),
    ):
        payload = json.loads(json.dumps(original))
        mutate(payload)
        model_path.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run_cli("refine", "--dataset", out_dir / "dataset.json", "--model", model_path, "--out-dir", out_dir)
        assert code == 2, named
        assert f"{model_path}: {named}" in capsys.readouterr().err


def test_load_head_checks_shapes_against_each_other_only_without_config(tmp_path):
    path = tmp_path / "model.json"
    save_head(path, ToyHead.create(feature_dim=4, hidden_dim=6, n_logits=7, seed=3))
    assert load_head(path).w1.shape == (5, 6)
    with pytest.raises(SchemaError, match=r"arrays.w_hidden must have shape \(16, 6\), got \(4, 6\)"):
        load_head(path, RunConfig())


def test_eval_out_creates_missing_parent_directories(tmp_path):
    gt_path, det_path = tmp_path / "gt.json", tmp_path / "det.jsonl"
    save_ground_truth(gt_path, sample_gts(), 3, 8)
    save_detections(det_path, oracle_detections(sample_gts()))
    out_path = tmp_path / "nodir" / "sub" / "report.json"
    assert run_cli("eval", "--gt", gt_path, "--det", det_path, "--out", out_path) == 0
    assert json.loads(out_path.read_text())["uc_map"] == 1.0


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    """A simulated and trained tiny run: every input file kind of the CLI."""
    return small_run(tmp_path_factory.mktemp("chain"))


# the command that reads each input file kind, given the run and the file
READS = {
    "config": lambda run, path: ["simulate", "--out-dir", run / "out", "--config", path],
    "dataset": lambda run, path: ["train", "--dataset", path, "--out-dir", run / "out"],
    "model": lambda run, path: ["refine", "--dataset", run / "dataset.json", "--model", path, "--out-dir", run / "out"],
    "gt": lambda run, path: ["eval", "--gt", path, "--det", run / "detections.jsonl", "--out", run / "out" / "r.json"],
    "det": lambda run, path: ["eval", "--gt", run / "gt.json", "--det", path, "--out", run / "out" / "r.json"],
}


@pytest.mark.parametrize("kind", sorted(READS))
def test_undecodable_input_exits_two_naming_the_file(chain_dir, tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.bin"
    path.write_bytes(b"\xff")
    capsys.readouterr()
    assert run_cli(*READS[kind](chain_dir, path)) == 2
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert capsys.readouterr().err == f"error: schema violation: {path}: not valid JSON ({reason})\n"


@pytest.mark.parametrize("kind", sorted(READS))
def test_json_nested_too_deep_exits_two_naming_the_file(chain_dir, tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    capsys.readouterr()
    assert run_cli(*READS[kind](chain_dir, path)) == 2
    where = f"{path}: line 1" if kind == "det" else str(path)
    assert capsys.readouterr().err.startswith(f"error: schema violation: {where}: not valid JSON (maximum recursion")


# where the chain run keeps each input file kind
SOURCES = {
    "config": lambda run: run.parent / "config.json",
    "dataset": lambda run: run / "dataset.json",
    "model": lambda run: run / "model.json",
    "gt": lambda run: run / "gt.json",
    "det": lambda run: run / "detections.jsonl",
}


@pytest.mark.parametrize("kind", sorted(READS))
def test_integer_past_the_digit_limit_exits_two_naming_the_file(chain_dir, tmp_path, capsys, kind):
    source = SOURCES[kind](chain_dir)
    path = tmp_path / source.name
    # the file's first number becomes an integer of 5000 digits; json stops at 4300
    path.write_text(re.sub(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", "1" * 5000, source.read_text(), count=1))
    capsys.readouterr()
    assert run_cli(*READS[kind](chain_dir, path)) == 2
    where = f"{path}: line 1" if kind == "det" else str(path)
    assert capsys.readouterr().err.startswith(
        f"error: schema violation: {where}: not valid JSON (Exceeds the limit (4300 digits)"
    )


@pytest.mark.parametrize("kind", sorted(READS))
def test_a_directory_given_as_an_input_file_exits_one(chain_dir, tmp_path, capsys, kind):
    capsys.readouterr()
    assert run_cli(*READS[kind](chain_dir, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1
