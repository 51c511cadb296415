#!/usr/bin/env python3
"""Run the full synthetic pipeline once and print the open-world scorecard.

Generates a dataset, trains the toy detection head, scores the test split,
then applies cluster refinement to the unknown detections and scores again.
Useful as a smoke test and as the quickest way to see the effect of a config
change end to end.
"""

import argparse
import dataclasses

from ucowod import RunConfig, evaluate, refine_pipeline, train_and_score
from ucowod.io import load_config, save_report


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None, help="JSON file of RunConfig overrides")
    parser.add_argument("--report", default=None, help="optional path for the refined report JSON")
    return parser.parse_args()


def describe(tag: str, report) -> None:
    print(
        f"{tag:>10}  map_known={report.map_known:.4f}  wi={report.wi:.4f}  "
        f"a_ose={report.a_ose}  uc_map={report.uc_map:.4f}  uc_recall={report.uc_recall:.4f}"
    )


def main() -> None:
    args = parse_args()
    config = load_config(args.config) if args.config is not None else RunConfig()
    config = dataclasses.replace(config, seed=args.seed)

    dataset, trained, raw = train_and_score(config)
    print(
        f"dataset: {len(dataset.train)} train / {len(dataset.test)} test scenes, "
        f"{config.known_classes} known classes, {config.unknown_gt_classes} hidden classes"
    )
    first, last = trained.history[0].total, trained.history[-1].total
    print(
        f"trained {len(trained.history)} epochs, loss {first:.4f} -> {last:.4f}, "
        f"{trained.rows.n_pseudo} pseudo-labels, final lambda {trained.final_lambda:.3f}"
    )
    describe("raw", raw)

    outcome = refine_pipeline(trained.head, dataset, config)
    refined = evaluate(dataset.test_ground_truth(), outcome.detections)
    describe("refined", refined)
    print(
        f"refinement relabeled {len(outcome.refined_indices)} unknown detections "
        f"into {outcome.n_clusters} clusters"
    )

    if args.report is not None:
        save_report(args.report, refined, {"seed": config.seed, "stage": "refined"})
        print(f"wrote {args.report}")


if __name__ == "__main__":
    main()
