#!/usr/bin/env python3
"""Benchmark of the ``ucowod`` CLI stages, one workload per process.

    python3 bench/run.py --workload train_4x --seed 0 --seconds 55 --trace 0

Runs the workload's CLI stages in-process through ``ucowod.cli.main`` from
the ``src`` tree next to this directory, again and again, rotating over the
workload's datasets, for as many whole iterations as fit in ``--seconds``
(at least one per dataset), checks every run, prints a human-readable
account and, as the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

On a calibrated workload a fixed kernel (``calibrate.py``) is timed after
every iteration, and ``run_s`` is the wall time (``wall_s``) scaled to the
machine speed at which that kernel takes ``calibrate.REFERENCE_S``. With
``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json; with ``--trace 1`` iterations alternate untraced and traced
and the metrics are the ``per_layer`` list. Spans, work counts and the full
account are written under ``.bench_run/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
HOLDOUT_SEED = 1  # confirm a claimed gain here too, not only on the seed it was tuned on
SETUP_REPEATS = 5
SCORECARD = ("map_known", "wi", "a_ose", "uc_map", "uc_recall")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "UCOWOD_THREADS")


def summarize(groups: list[list[float]]) -> dict:
    """Median over every sample and the highest of p99/p95/p90/p75 with at
    least ten samples beyond it (with fewer, the maximum stands in, labelled
    so); and ``value``, the mean over groups (datasets) of each group's
    median, so that every dataset weighs the same however many iterations
    it got. With one group ``value`` is the median."""
    values = [v for group in groups for v in group]
    ordered = sorted(values)
    n = len(ordered)
    out = {
        "value": statistics.fmean(statistics.median(group) for group in groups),
        "median": statistics.median(ordered), "n": n, "high": ordered[-1], "high_label": "max", "values": values,
    }
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            out["high"] = statistics.quantiles(ordered, n=100)[pct - 1]
            out["high_label"] = f"p{pct}"
            break
    return out


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ucowod").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "git_commit": git_commit(),
        "source_hash": source_hash(),
    }


def time_import() -> float:
    """Wall time for a fresh interpreter to start and import the CLI."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ucowod.cli"], env=env, check=True, timeout=120)
    return time.perf_counter() - start


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Reference:
    """First-seen report digests and work counts per dataset, keyed by
    workload, input bytes and program source, kept across runs in the same
    checkout."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, value, problems: list[str]) -> None:
        if key not in self.data:
            self.data[key] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        elif self.data[key] != value:
            problems.append(f"{key} differs from the first run on these inputs")


def reload_problems(paths: list[Path], gt_path: Path) -> list[str]:
    """Reload detection files through the program's own reader."""
    from ucowod.io import load_detections

    if not paths:
        return []
    gt = json.loads(gt_path.read_text())
    problems = []
    for path in paths:
        try:
            if not load_detections(path, gt["known_count"], gt["unknown_slots"]):
                problems.append(f"{path.name} holds no detections")
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name} does not reload: {exc}")
    return problems


def run_iteration(workload, cli_main, inputs: Path, out: Path, tracer, layers) -> dict:
    """Run the timed stages once into a fresh ``out`` and return stage
    times plus any problems; ``tracer`` (if given) is installed only for the
    duration of the stages."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    times: dict[str, float] = {}
    problems: list[str] = []
    missing = tracer.install(layers.TARGETS) if tracer else []
    try:
        for stage in workload.timed:
            argv = workload.argv(stage, inputs, out)
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                span = tracer.open(layers.ROOT_SPAN) if tracer else None
                try:
                    code = cli_main(argv)
                finally:
                    if tracer:
                        tracer.close(span)
                times[stage] = time.perf_counter() - start
            if code != 0:
                problems.append(f"{stage} exited with {code}")
                break
    except Exception:
        traceback.print_exc()
        problems.append("stage raised")
    finally:
        if tracer:
            tracer.uninstall()
    result = {"times": times, "problems": problems, "missing": [t.owner + "." + t.attr for t in missing]}
    if problems:
        return result

    problems += reload_problems(workload.written_detections(out), workload.gt_file(inputs, out))
    report_bytes = (out / "report.json").read_bytes()
    report = json.loads(report_bytes)
    scorecard = {name: report[name] for name in SCORECARD}
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in scorecard.values()):
        problems.append(f"scorecard not finite: {scorecard}")
    result.update(scorecard=scorecard, report_sha256=hashlib.sha256(report_bytes).hexdigest())
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ucowod" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no ucowod source tree at {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import layers
    from calibrate import Calibration
    from tracing import Tracer
    from ucowod.cli import main as cli_main
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    problems: list[str] = []
    work = ROOT / ".bench_run" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)

    # set-up: a fresh interpreter importing the package, plus input generation
    seeds = workload.dataset_seeds(args.seed)
    setup_samples, digests = [], []
    for repeat in range(SETUP_REPEATS):
        imported = time_import()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for d, seed in enumerate(seeds):
                workload.prepare(work / f"inputs{repeat}" / f"d{d}", seed, cli_main)
        setup_samples.append(imported + time.perf_counter() - start)
        digests.append(tree_digest(work / f"inputs{repeat}"))
    if len(set(digests)) != 1:
        problems.append("inputs differ between set-up repeats at one seed")
    inputs = [work / "inputs0" / f"d{d}" for d in range(len(seeds))]
    reference = Reference(ROOT / ".bench_run" / "reference" / f"{workload.name}-{digests[0][:16]}-{env['source_hash']}.json")
    for given in inputs:
        problems += reload_problems(workload.given_detections(given), workload.gt_file(given, given))

    # Whole rotations over the datasets, alternately untraced and traced
    # with --trace 1, until every dataset has had each kind of iteration
    # and the next iteration would end after --seconds.
    plain, traced, failed = [], [], 0
    first_report, first_counts = {}, {}
    calibration = Calibration() if workload.calibrated else None
    start = time.perf_counter()
    while True:
        index = len(plain) + len(traced)
        d = index % len(seeds)
        tracer = Tracer(run=index) if args.trace and (index // len(seeds)) % 2 == 1 else None
        result = run_iteration(workload, cli_main, inputs[d], work / "out", tracer, layers)
        result["dataset"] = d
        result["run_s"] = sum(result["times"].values())
        iteration_problems = result["problems"]
        if "report_sha256" in result:
            first_report.setdefault(d, result["report_sha256"])
            if result["report_sha256"] != first_report[d]:
                iteration_problems.append(f"report.json differs from the first iteration on dataset {d}")
            reference.check(f"report_sha256.{d}", result["report_sha256"], iteration_problems)
        if tracer:
            result["layers"] = layers.per_layer(tracer)
            result["spans"] = [asdict(s) for s in tracer.spans]
            counts = layers.work_counts(result["layers"])
            first_counts.setdefault(d, counts)
            if counts != first_counts[d]:
                iteration_problems.append(f"work counts differ from the first traced iteration on dataset {d}")
            reference.check(f"work_counts.{d}", counts, iteration_problems)
            own_sum = result["layers"]["trace.self_sum_s"] - result["layers"]["trace.thread_overlap_s"]
            if abs(own_sum - result["run_s"]) > 1e-3 * result["run_s"] + 1e-3:
                iteration_problems.append(f"self times sum to {own_sum:.4f} s, traced run {result['run_s']:.4f} s")
        if iteration_problems:
            failed += 1
            print(f"iteration {index} failed: {'; '.join(iteration_problems)}", file=sys.stderr)
        (traced if tracer else plain).append(result)
        if calibration:
            calibration.sample(2)
        elapsed = time.perf_counter() - start
        covered = index + 1 >= len(seeds) * (2 if args.trace else 1)
        if covered and elapsed + elapsed / (index + 1) > args.seconds:
            break
    env["loadavg_end"] = os.getloadavg()

    # iterations whose stages all ran; a failed check still counts in `failed`
    good = by_dataset([r for r in plain if "scorecard" in r], len(seeds))
    good_traced = by_dataset([r for r in traced if "scorecard" in r], len(seeds))
    if not all(good) or (args.trace and not all(good_traced)):
        print("error: a dataset has no iteration that completed its stages; see the messages above", file=sys.stderr)
        return 1
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "dataset_seeds": seeds,
        "trace": args.trace,
        "environment": env,
        "setup_s_samples": setup_samples,
        "problems": problems,
        "untraced_iterations": len(plain),
        "traced_iterations": len(traced),
        "missing_targets": sorted({m for r in traced for m in r["missing"]}),
        "end_to_end": end_to_end(workload, good, setup_samples, calibration),
    }
    if args.trace:
        detail["per_layer"] = per_layer_summary(good_traced, detail["end_to_end"])
        (work / "spans.json").write_text(json.dumps([s for r in traced for s in r["spans"]]))
    (work / "result.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    print_detail(detail)

    if args.trace:
        chosen = {m["name"]: (detail["per_layer"][m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (detail["end_to_end"][m["name"]]["value"], m["unit"]) for m in spec["end_to_end"]}
    attempted = len(plain) + len(traced)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


def by_dataset(results: list[dict], count: int) -> list[list[dict]]:
    return [[r for r in results if r["dataset"] == d] for d in range(count)]


def end_to_end(workload, good: list[list[dict]], setup_samples: list[float], calibration) -> dict:
    """Every end-to-end figure of this workload, each a summary with its
    unit, from the good iterations grouped by dataset. Stage times appear
    only for the stages the workload names. ``run_s`` is ``wall_s``, scaled
    to the reference speed when ``calibration`` is given."""
    scale = calibration.scale() if calibration else 1.0

    def over(pick) -> dict:
        return summarize([[pick(r) for r in group] for group in good])

    out = {
        "run_s": {**over(lambda r: r["run_s"] * scale), "unit": "s"},
        "wall_s": {**over(lambda r: r["run_s"]), "unit": "s"},
        "setup_s": {**summarize([setup_samples]), "unit": "s"},
        "peak_rss_mb": {**summarize([[resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]]), "unit": "MB"},
    }
    if calibration:
        out["calibration_s"] = {**summarize([calibration.samples]), "unit": "s"}
    for stage in workload.stage_metrics:
        out[f"{stage}_s"] = {**over(lambda r: r["times"][stage]), "unit": "s"}
    for name in SCORECARD:
        out[name] = {**over(lambda r: r["scorecard"][name]), "unit": "count" if name == "a_ose" else "ratio"}
    return out


def per_layer_summary(traced: list[list[dict]], e2e: dict) -> dict:
    """Each per-layer figure as the mean over datasets of its median over
    the dataset's traced iterations."""

    def over(pick) -> float:
        return statistics.fmean(statistics.median(pick(r) for r in group) for group in traced)

    names = traced[0][0]["layers"]
    out = {name: over(lambda r: r["layers"][name]) for name in names}
    out["trace.run_s"] = over(lambda r: r["run_s"])
    out["trace.untraced_run_s"] = e2e["wall_s"]["value"]
    out["trace.overhead_s"] = out["trace.run_s"] - out["trace.untraced_run_s"]
    steps = out["refinement.steps_run"]
    out["refinement.soft_assignment.per_step"] = out["refinement.soft_assignment.calls"] / steps if steps else 0.0
    proposals = out["pseudo_label.proposals"]
    out["pseudo_label.selected_frac"] = out["pseudo_label.selected"] / proposals if proposals else 0.0
    return out


def print_detail(detail: dict) -> None:
    env = detail["environment"]
    print(f"workload {detail['workload']}  seed {detail['seed']} (holdout seed {detail['holdout_seed']})  "
          f"datasets {detail['dataset_seeds']}  "
          f"untraced iterations {detail['untraced_iterations']}  traced {detail['traced_iterations']}")
    print(f"env nproc={env['nproc']} load={env['loadavg_start']}->{env['loadavg_end']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas_env']} commit={env['git_commit']}")
    for name, s in detail["end_to_end"].items():
        print(f"  {name:<12} {s['value']:>12.6g} {s['unit']:<6} value  median {s['median']:.6g}  "
              f"{s['high_label']} {s['high']:.6g}  n={s['n']}")
    for name, value in sorted(detail.get("per_layer", {}).items()):
        if value:
            print(f"  {name:<44} {value:.6g}")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    if detail["missing_targets"]:
        print(f"  not traced (name not found): {', '.join(detail['missing_targets'])}")


if __name__ == "__main__":
    sys.exit(main())
