"""Command-line entry points: ``eval``, ``simulate``, ``train``, ``refine``.

The subcommands chain through files: ``simulate`` writes a synthetic dataset
plus its test-split ground truth, ``train`` fits the head and writes test
detections, ``refine`` relabels unknown detections by cluster, and ``eval``
scores any detection file against any ground-truth file. Only ``simulate``
takes ``--config``; ``train`` and ``refine`` run with the config stored in
``dataset.json``, overridden only by ``--seed``. Exit codes: 0 on success,
1 for missing or unreadable files and runtime failures, 2 for schema
violations, input that is not UTF-8 JSON among them, and for usage errors,
an ``eval`` threshold outside its range among them.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Callable, Optional

from . import io
from .harness import RunConfig, detect, generate_dataset, refine_pipeline, train
from .metrics import EvalConfig, evaluate


def _with_seed(config: RunConfig, seed: Optional[int]) -> RunConfig:
    return config if seed is None else dataclasses.replace(config, seed=seed)


def _eval_threshold(field: str) -> Callable[[str], float]:
    """An argparse type: a number that ``EvalConfig`` accepts as ``field``."""

    def threshold(text: str) -> float:
        try:
            return getattr(EvalConfig(**{field: float(text)}), field)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return threshold


def _cmd_eval(args: argparse.Namespace) -> int:
    gts, known_count, unknown_slots = io.load_ground_truth(args.gt)
    detections = io.load_detections(args.det, known_count, unknown_slots)
    config = EvalConfig(iou_threshold=args.iou_thresh, score_threshold=args.score_thresh)
    report = evaluate(gts, detections, config)
    config_echo = {
        # basenames only, so identical runs in different directories produce
        # identical report bytes
        "det": Path(args.det).name,
        "gt": Path(args.gt).name,
        "iou_threshold": config.iou_threshold,
        "known_count": known_count,
        "score_threshold": config.score_threshold,
        "unknown_slots": unknown_slots,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    io.save_report(args.out, report, config_echo)
    print(
        f"map_known={report.map_known:.6f} wi={report.wi:.6f} a_ose={report.a_ose} "
        f"uc_map={report.uc_map:.6f} uc_recall={report.uc_recall:.6f} -> {args.out}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _with_seed(io.load_config(args.config) if args.config else RunConfig(), args.seed)
    dataset = generate_dataset(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.save_dataset(out_dir / "dataset.json", dataset)
    io.save_ground_truth(
        out_dir / "gt.json",
        dataset.test_ground_truth(),
        config.known_classes,
        config.unknown_slots,
    )
    n_unknown = sum(1 for g in dataset.test_ground_truth() if g.label.is_unknown)
    print(
        f"wrote {len(dataset.train)} train / {len(dataset.test)} test scenes "
        f"({n_unknown} unknown test objects) to {out_dir}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = io.load_dataset(args.dataset)
    config = _with_seed(dataset.config, args.seed)
    result = train(config, dataset)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.save_head(out_dir / "model.json", result.head)
    detections = detect(result.head, dataset.test, config)
    io.save_detections(out_dir / "detections.jsonl", detections)
    first, last = result.history[0], result.history[-1]
    print(
        f"trained {config.epochs} epochs (loss {first.model_loss:.4f} -> {last.model_loss:.4f}), "
        f"{len(detections)} test detections -> {out_dir}"
    )
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    dataset = io.load_dataset(args.dataset)
    config = _with_seed(dataset.config, args.seed)
    head = io.load_head(args.model, config)
    outcome = refine_pipeline(head, dataset, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.save_detections(out_dir / "detections_refined.jsonl", outcome.detections)
    print(
        f"refined {len(outcome.refined_indices)} unknown detections into "
        f"{outcome.n_clusters} clusters -> {out_dir}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucowod",
        description="Open-world detection pipeline and evaluator on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="score a detection file against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth JSON file")
    p_eval.add_argument("--det", required=True, help="detections JSONL file")
    p_eval.add_argument("--out", required=True, help="report JSON to write")
    p_eval.add_argument("--iou-thresh", type=_eval_threshold("iou_threshold"), default=EvalConfig.iou_threshold)
    p_eval.add_argument("--score-thresh", type=_eval_threshold("score_threshold"), default=EvalConfig.score_threshold)
    p_eval.set_defaults(func=_cmd_eval)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--config", default=None, help="JSON file of RunConfig overrides")
    p_sim.set_defaults(func=_cmd_simulate)

    p_train = sub.add_parser("train", help="train the toy head on a dataset")
    p_train.add_argument("--dataset", required=True, help="dataset.json from simulate")
    p_train.add_argument("--out-dir", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=_cmd_train)

    p_refine = sub.add_parser("refine", help="cluster-refine unknown detections")
    p_refine.add_argument("--dataset", required=True)
    p_refine.add_argument("--model", required=True, help="model.json from train")
    p_refine.add_argument("--out-dir", required=True)
    p_refine.add_argument("--seed", type=int, default=None)
    p_refine.set_defaults(func=_cmd_refine)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return 1
    except io.SchemaError as exc:
        print(f"error: schema violation: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
