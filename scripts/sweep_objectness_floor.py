#!/usr/bin/env python3
"""Sweep the pseudo-label objectness floor and watch the downstream metrics.

A higher floor admits fewer, cleaner pseudo-labels; a lower one admits more
but noisier ones. For each floor value this trains the full pipeline on one
seed and prints how many pseudo-labels were selected together with the
unknown-class metrics on raw test detections.
"""

import argparse
import dataclasses

from ucowod import RunConfig, train_and_score


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--floors", type=float, nargs="+", default=[0.1, 0.3, 0.5, 0.7, 0.9])
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    base = RunConfig(seed=args.seed)
    print("floor  pseudo  uc_map  uc_recall  map_known")
    print("-------------------------------------------")
    for floor in args.floors:
        config = dataclasses.replace(base, ulp=dataclasses.replace(base.ulp, delta=floor))
        _, trained, report = train_and_score(config)
        print(
            f"{floor:5.2f}  {trained.rows.n_pseudo:6d}  {report.uc_map:6.3f}  "
            f"{report.uc_recall:9.3f}  {report.map_known:9.3f}"
        )


if __name__ == "__main__":
    main()
