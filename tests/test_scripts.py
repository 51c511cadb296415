"""Each driver script, run as a subprocess at its smallest setting."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == returncode, done.stderr
    return done.stdout.splitlines() if returncode == 0 else done.stderr.splitlines()


def test_run_pipeline_prints_scorecards_and_writes_report(tmp_path):
    report_path = tmp_path / "report.json"
    lines = run_script("run_pipeline.py", "--seed", 0, "--report", report_path)
    assert lines[0].startswith("dataset: 24 train / 12 test scenes")
    assert lines[1].startswith("trained 160 epochs")
    for tag, line in zip(("raw", "refined"), lines[2:4]):
        assert line.split()[0] == tag
        assert "map_known=" in line and "uc_recall=" in line
    assert lines[-1] == f"wrote {report_path}"
    report = json.loads(report_path.read_text())
    assert {"map_known", "wi", "a_ose", "uc_map", "uc_recall"} <= set(report)
    assert report["config_echo"] == {"seed": 0, "stage": "refined"}


def test_ablation_pair_loss_prints_one_row_per_weight():
    lines = run_script("ablation_pair_loss.py", "--weights", 0.5, "--seeds", 1)
    assert lines[0].split() == ["alpha_sim", "seed0", "mean"]
    assert len(lines) == 3
    weight, uc_map, mean = lines[2].split()
    assert float(weight) == 0.5
    assert uc_map == mean and 0.0 <= float(uc_map) <= 1.0


def test_sweep_objectness_floor_prints_one_row_per_floor():
    lines = run_script("sweep_objectness_floor.py", "--floors", 0.3)
    assert lines[0].split() == ["floor", "pseudo", "uc_map", "uc_recall", "map_known"]
    assert len(lines) == 3
    floor, pseudo, *scores = lines[2].split()
    assert float(floor) == 0.3
    assert int(pseudo) > 0
    assert all(0.0 <= float(v) <= 1.0 for v in scores)


def test_artifact_digests_print_and_compare(tmp_path):
    overrides = json.dumps({"epochs": 3})
    lines = run_script("artifact_digests.py", "--seeds", 0, 1, "--overrides", overrides)
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["overrides"] == {"epochs": 3}
    artifacts = {"dataset.json", "gt.json", "model.json", "detections.jsonl", "detections_refined.jsonl",
                 "report.json", "report_refined.json"}
    assert set(record["digests"]) == {"0", "1"}
    assert all(set(files) == artifacts for files in record["digests"].values())
    assert all(len(d) == 64 for files in record["digests"].values() for d in files.values())
    scorecard = {"map_known", "wi", "a_ose", "uc_map", "uc_recall"}
    assert set(record["scorecards"]) == {"0", "1"}
    assert all(set(scores) == scorecard for scores in record["scorecards"].values())

    # a second run reproduces every byte; a changed digest is named
    saved = tmp_path / "digests.json"
    saved.write_text(lines[0])
    run_script("artifact_digests.py", "--seeds", 0, 1, "--overrides", overrides, "--compare", saved)
    record["digests"]["1"]["model.json"] = "0" * 64
    saved.write_text(json.dumps(record))
    errors = run_script("artifact_digests.py", "--seeds", 0, 1, "--overrides", overrides, "--compare", saved,
                        returncode=1)
    assert errors == [f"seed 1: model.json differs from {saved}"]

    # with the digests, every scorecard value that moved is printed, old -> new
    uc_map = record["scorecards"]["0"]["uc_map"]
    record["scorecards"]["0"]["uc_map"] = -1.0
    saved.write_text(json.dumps(record))
    errors = run_script("artifact_digests.py", "--seeds", 0, 1, "--overrides", overrides, "--compare", saved,
                        returncode=1)
    assert errors == [f"seed 1: model.json differs from {saved}", f"seed 0: uc_map -1.0 -> {uc_map}"]
