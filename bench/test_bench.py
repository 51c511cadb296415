"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from calibrate import REFERENCE_S, Calibration  # noqa: E402
from tracing import Span, Target, Tracer, resolve, self_times  # noqa: E402
from workloads import PIPELINE, WORKLOADS, Workload  # noqa: E402

from ucowod.cli import main as cli_main  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = Workload("tiny", "smoke", {"train_scenes": 6, "test_scenes": 6, "epochs": 12}, PIPELINE, ("train",))

COMMON_END_TO_END = {
    "run_s", "wall_s", "setup_s", "peak_rss_mb", "map_known", "wi", "a_ose", "uc_map", "uc_recall",
}
STAGE_METRICS = {
    "train_4x": {"train_s"},
    "train_1x": {"train_s"},
    "openset_wide": {"train_s", "refine_s", "simulate_s"},
    "eval_dense": {"eval_s"},
}


def _span(name, start, end, parent=None, thread=1):
    return Span(name, start, end, parent, 0, thread)


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 5.0, 9.0, parent=0),
        _span("c", 6.0, 7.0, parent=2),
    ]
    own, overlap = self_times(spans)
    assert own == [3.0, 3.0, 3.0, 1.0]
    assert overlap == 0.0
    assert sum(own) == 10.0


def test_self_time_with_concurrent_children():
    spans = [
        _span("evaluate", 0.0, 10.0),
        _span("ap", 1.0, 6.0, parent=0, thread=2),
        _span("ap", 2.0, 8.0, parent=0, thread=3),
    ]
    own, overlap = self_times(spans)
    assert own == [3.0, 5.0, 6.0]
    assert overlap == 4.0
    assert sum(own) - overlap == 10.0


def test_worker_thread_spans_are_parented_to_the_tracing_thread():
    tracer = Tracer()
    outer = tracer.open("outer")
    worker = threading.Thread(target=lambda: tracer.close(tracer.open("inner")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(outer)
    assert tracer.spans[1].parent == outer


def test_counts_survive_thread_switches():
    tracer = Tracer()
    counted = tracer._wrapper(lambda: None, Target("m", "f", "f", count_only=True))
    calls, workers = 5000, 4
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [counted() for _ in range(calls)]) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert tracer.counts["f.calls"] == calls * workers


def _originals():
    return {(t.owner, t.attr): vars(resolve(t.owner))[t.attr] for t in layers.TARGETS}


def test_traced_iteration_restores_every_wrapped_name(tmp_path):
    before = _originals()
    TINY.prepare(tmp_path / "in", 0, cli_main)
    tracer = Tracer()
    result = run.run_iteration(TINY, cli_main, tmp_path / "in", tmp_path / "out", tracer, layers)
    assert result["problems"] == [] and result["missing"] == []
    assert _originals() == before
    metrics = layers.per_layer(tracer)
    assert metrics["harness.train.calls"] == 1 and metrics["metrics.evaluate.calls"] == 1
    assert metrics["harness.epochs.supervised"] + metrics["harness.epochs.self"] + metrics["harness.epochs.post"] == 12
    assert metrics["core.iou.calls"] > 0 and metrics["io.bytes_written"] > 0
    run_s = sum(result["times"].values())
    assert abs(metrics["trace.self_sum_s"] - metrics["trace.thread_overlap_s"] - run_s) < 1e-3 * run_s + 1e-3
    assert all(NAME.fullmatch(name) for name in metrics)


def test_wrappers_are_removed_when_a_stage_raises(tmp_path):
    before = _originals()

    def broken(argv):
        raise KeyError("boom")

    TINY.prepare(tmp_path / "in", 0, cli_main)
    tracer = Tracer()
    result = run.run_iteration(TINY, broken, tmp_path / "in", tmp_path / "out", tracer, layers)
    assert result["problems"] == ["stage raised"]
    assert _originals() == before


def test_missing_names_are_skipped_not_fatal():
    before = _originals()
    tracer = Tracer()
    missing = tracer.install([Target("ucowod.harness", "no_such_function", "x"), layers.TARGETS[0]])
    try:
        assert [t.attr for t in missing] == ["no_such_function"]
        assert _originals() != before
    finally:
        tracer.uninstall()
    assert _originals() == before


def test_each_workload_reports_exactly_its_end_to_end_metrics():
    fake = {"times": {stage: 1.0 for stage in PIPELINE}, "run_s": 4.0, "scorecard": dict.fromkeys(run.SCORECARD, 0.5)}
    calibration = Calibration()
    calibration.samples = [REFERENCE_S / 2]
    assert [name for name, w in WORKLOADS.items() if w.calibrated] == ["train_1x"]
    gated = {m["name"] for m in SPEC["end_to_end"]}
    for name, workload in WORKLOADS.items():
        emitted = set(run.end_to_end(workload, [[fake]] * workload.datasets, [1.0], calibration if workload.calibrated else None))
        calibrated = {"calibration_s"} if workload.calibrated else set()
        assert emitted == COMMON_END_TO_END | STAGE_METRICS[name] | calibrated, name
        assert gated <= emitted


def test_run_time_is_scaled_to_the_reference_speed():
    fast = Calibration()
    fast.samples = [REFERENCE_S / 2, REFERENCE_S / 2, REFERENCE_S]
    fake = {"times": {"train": 3.0}, "run_s": 3.0, "scorecard": dict.fromkeys(run.SCORECARD, 0.5)}
    figures = run.end_to_end(WORKLOADS["train_4x"], [[fake]], [1.0], fast)
    assert figures["wall_s"]["value"] == 3.0
    assert figures["run_s"]["value"] == 6.0
    assert run.end_to_end(WORKLOADS["train_4x"], [[fake]], [1.0], None)["run_s"]["value"] == 3.0
    fast.sample()
    assert len(fast.samples) == 4 and fast.samples[-1] > 0


def test_metric_names_and_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS.values() if not w.ungated]
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    produced = run.per_layer_summary([[{"layers": layers.per_layer(Tracer()), "run_s": 1.0}]], {"wall_s": {"value": 1.0}})
    assert all(NAME.fullmatch(name) for name in produced)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(produced)


def test_summary_labels_its_high_percentile():
    assert run.summarize([[3.0, 1.0, 2.0]]) == {
        "value": 2.0, "median": 2.0, "n": 3, "high": 3.0, "high_label": "max", "values": [3.0, 1.0, 2.0],
    }
    assert run.summarize([[float(i) for i in range(40)]])["high_label"] == "p75"
    assert run.summarize([[float(i) for i in range(1000)]])["high_label"] == "p99"


def test_summary_weighs_every_dataset_the_same():
    summary = run.summarize([[1.0, 1.0, 1.0, 1.0], [2.0], [3.0]])
    assert summary["value"] == 2.0
    assert summary["median"] == 1.0 and summary["n"] == 6


def test_dataset_seeds_are_disjoint_between_workload_seeds():
    workload = WORKLOADS["train_1x"]
    assert workload.datasets > 1
    first, second = workload.dataset_seeds(0), workload.dataset_seeds(1)
    assert len(set(first)) == workload.datasets and not set(first) & set(second)
    assert WORKLOADS["train_4x"].dataset_seeds(7) == [7]
