#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
quartile spread against its bound in BENCHMARK.json.

    python3 bench/spread.py --workload train_4x --seeds 0-9 [--out FILE]

Spread is (Q3 - Q1) / median over the seeds, with the quartiles of
``statistics.quantiles(values, n=4)``. Runs are sequential, one process at
a time, each with BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from report import ROOT, run_once


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    finals = []
    for seed in args.seeds:
        final, _ = run_once(args.workload, seed, spec["run_seconds"], 0)
        finals.append(final)
        values = {name: round(m["value"], 4) for name, m in final["metrics"].items()}
        print(f"seed {seed} correct={final['correct']} attempted={final['attempted']} {values}", flush=True)

    rows = {}
    for metric in spec["end_to_end"]:
        values = [f["metrics"][metric["name"]]["value"] for f in finals]
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / statistics.median(values)
        rows[metric["name"]] = {"median": statistics.median(values), "spread": spread, "bound": metric["bound"], "values": values}
        print(f"{metric['name']:<12} median {statistics.median(values):.6g} {metric['unit']:<6} "
              f"spread {spread:.4f}  bound {metric['bound']}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": rows,
                                        "all_correct": all(f["correct"] for f in finals)}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
