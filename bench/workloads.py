"""The workloads: their inputs and the CLI stages each one times.

Every input is made from the workload seed alone. The number of objects per
scene is pinned to 5 (``min_objects = max_objects = 5``; the default draws
3 to 6) so that the input *size* is the same at every seed and only its
content varies: training rows, test objects and detections per image are
then fixed counts, and run-to-run spread measures the machine rather than a
seed that happened to draw more objects. Scene counts are picked to give
the sizes the workloads are about.

Content still varies: some seeds train a weaker head, or put more
detections in unknown slots for refinement to cluster. A workload whose
iterations are short therefore runs several datasets per seed, one after
another in rotation (``datasets``). Its figures are means over the
datasets, so one unlucky draw moves them by a share, not the whole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PIPELINE = ("simulate", "train", "refine", "eval")
FIXED_OBJECTS = {"min_objects": 5, "max_objects": 5}
DETECTIONS_PER_IMAGE = 40


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    timed: tuple[str, ...]
    # stages slow enough on this workload to carry their own time metric
    stage_metrics: tuple[str, ...]
    # datasets per workload seed, run in rotation
    datasets: int = 1
    # scale run time by a calibration kernel timed between iterations
    # (calibrate.py); only iterations a few seconds long let it follow the
    # machine's drift
    calibrated: bool = False
    # why the workload is left out of BENCHMARK.json, if it is
    ungated: str = ""

    @property
    def pipeline(self) -> bool:
        return self.timed == PIPELINE

    def dataset_seeds(self, seed: int) -> list[int]:
        """The RunConfig seeds of the workload seed's datasets:
        ``seed * datasets`` onwards, so no two workload seeds share one."""
        return [seed * self.datasets + d for d in range(self.datasets)]

    def prepare(self, inputs: Path, seed: int, cli_main) -> None:
        """Write one dataset's inputs into ``inputs``: the RunConfig
        overrides with ``seed``, and for ``eval_dense`` also the ground
        truth (through the ``simulate`` stage) and a detection file."""
        inputs.mkdir(parents=True)
        config = inputs / "config.json"
        config.write_text(json.dumps({**self.overrides, "seed": seed}, sort_keys=True))
        if not self.pipeline:
            if cli_main(["simulate", "--out-dir", str(inputs), "--config", str(config)]) != 0:
                raise RuntimeError("simulate failed while preparing inputs")
            write_detections(inputs / "gt.json", inputs / "detections.jsonl", seed)

    def argv(self, stage: str, inputs: Path, out: Path) -> list[str]:
        data = out if self.pipeline else inputs
        return {
            "simulate": ["simulate", "--out-dir", str(out), "--config", str(inputs / "config.json")],
            "train": ["train", "--dataset", str(out / "dataset.json"), "--out-dir", str(out)],
            "refine": [
                "refine", "--dataset", str(out / "dataset.json"),
                "--model", str(out / "model.json"), "--out-dir", str(out),
            ],
            "eval": [
                "eval", "--gt", str(data / "gt.json"), "--out", str(out / "report.json"),
                "--det", str(out / "detections_refined.jsonl" if self.pipeline else inputs / "detections.jsonl"),
            ],
        }[stage]

    def written_detections(self, out: Path) -> list[Path]:
        return [out / "detections.jsonl", out / "detections_refined.jsonl"] if self.pipeline else []

    def given_detections(self, inputs: Path) -> list[Path]:
        return [] if self.pipeline else [inputs / "detections.jsonl"]

    def gt_file(self, inputs: Path, out: Path) -> Path:
        return (out if self.pipeline else inputs) / "gt.json"


def write_detections(gt_path: Path, out_path: Path, seed: int) -> None:
    """A detector's output as a user would bring it to ``eval``: for every
    image, DETECTIONS_PER_IMAGE boxes each jittered around one of the
    image's ground-truth boxes, with a uniform score and a class id that is
    the box's own with probability 1/2 and otherwise drawn uniformly over
    the known classes and all unknown slots. (True unknown class ids lie
    inside the slot range, so "its own" is a consistent unknown slot.) A
    half-right detector keeps every metric well away from 0."""
    payload = json.loads(gt_path.read_text())
    n_classes = payload["known_count"] + payload["unknown_slots"]
    by_image: dict[int, list] = {}
    for record in payload["annotations"]:
        by_image.setdefault(record["image_id"], []).append([*record["bbox"], record["class_id"]])
    rng = np.random.default_rng([seed, 1])
    n = DETECTIONS_PER_IMAGE
    with open(out_path, "w") as handle:
        for image_id in sorted(by_image):
            objects = np.array(by_image[image_id], dtype=float)
            base = objects[rng.integers(len(objects), size=n)]
            centers = base[:, :2] + rng.uniform(-0.2, 0.2, size=(n, 2)) * base[:, 2:4]
            sizes = base[:, 2:4] * rng.uniform(0.8, 1.2, size=(n, 2))
            class_ids = np.where(rng.random(n) < 0.5, base[:, 4].astype(int), rng.integers(n_classes, size=n))
            scores = rng.random(n)
            for center, size, class_id, score in zip(centers, sizes, class_ids, scores):
                record = {
                    "image_id": image_id,
                    "class_id": int(class_id),
                    "bbox": [round(float(v), 6) for v in (*center, *size)],
                    "score": round(float(score), 6),
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_4x",
            "1620 training rows: the O(N^2) pair-similarity term of training is nearly all of the run",
            {"train_scenes": 90, "test_scenes": 120, **FIXED_OBJECTS},
            PIPELINE,
            ("train",),
        ),
        Workload(
            "train_1x",
            "432 training rows, the default scale, on 14 datasets per seed: the small-N side, where a pair-loss change that only helps large N shows its cost",
            {"test_scenes": 40, **FIXED_OBJECTS},
            PIPELINE,
            ("train",),
            datasets=14,
            calibrated=True,
        ),
        Workload(
            "openset_wide",
            "432 training rows but 1800 test objects: time spread over simulate I/O, detect and refinement",
            {"test_scenes": 360, **FIXED_OBJECTS},
            PIPELINE,
            ("simulate", "train", "refine"),
            ungated=(
                "unsteady across seeds: refinement time and peak memory follow how many detections "
                "the trained head puts in unknown slots (peak RSS 195-263 MB over seeds 0-9, quartile "
                "spread 0.24 against a bound of 0.1; run_s spread 0.15)"
            ),
        ),
        Workload(
            "eval_dense",
            "standalone eval of 24000 given detections on 600 images: read-heavy io and metrics only",
            {"test_scenes": 600, **FIXED_OBJECTS},
            ("eval",),
            ("eval",),
            ungated=(
                "unsteady in time: evaluation is pure Python, whose speed on this shared machine drifts "
                "by 15-30% over minutes (run_s quartile spread 0.086 and 0.336 in two sets of seeds 0-9)"
            ),
        ),
    )
}
