#!/usr/bin/env python3
"""Ablate the pair-similarity loss weight across seeds.

Trains the pipeline once per (weight, seed) pair and reports unknown-class
mAP on raw test detections, before any cluster refinement, so the comparison
isolates what the pair term contributes during training.
"""

import argparse
import statistics

from ucowod import LossWeights, RunConfig, train_and_score


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weights", type=float, nargs="+", default=[0.0, 0.5])
    parser.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1")
    return parser.parse_args()


def uc_map_for(weight: float, seed: int) -> float:
    _, _, report = train_and_score(RunConfig(seed=seed, weights=LossWeights(alpha_sim=weight)))
    return report.uc_map


def main() -> None:
    args = parse_args()
    seeds = list(range(args.seeds))
    header = "alpha_sim  " + "  ".join(f"seed{s}" for s in seeds) + "   mean"
    print(header)
    print("-" * len(header))
    for weight in args.weights:
        values = [uc_map_for(weight, seed) for seed in seeds]
        row = "  ".join(f"{v:5.3f}" for v in values)
        print(f"{weight:9.2f}  {row}  {statistics.mean(values):5.3f}")


if __name__ == "__main__":
    main()
