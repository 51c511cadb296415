#!/usr/bin/env python3
"""Run every workload, untraced then traced, and print all its metrics.

    python3 bench/report.py --seed 0 --seconds 55 [--out bench/results/NAME.json]

Each run is a separate ``bench/run.py`` process, one at a time. The table
lists every end-to-end figure of each workload by name and unit, then the
per-layer numbers of its traced run that are not zero. ``--out`` saves
the collected account (environment, end-to-end summaries, per-layer
metrics and the two runs' final lines) as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# train_4x ``train`` at re-anchor (96 scenes, about 1620 rows, 2 cores); shown for reference only
ROADMAP_TRAIN_4X_S = 32.6


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} trace={trace} exited with {done.returncode}")
    final = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_run" / f"{workload}-seed{seed}-trace{trace}" / "result.json").read_text())
    return final, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    collected = {}
    for name in WORKLOADS:
        plain_final, plain = run_once(name, args.seed, args.seconds, 0)
        traced_final, traced = run_once(name, args.seed, args.seconds, 1)
        collected[name] = {
            "environment": plain["environment"],
            "end_to_end": plain["end_to_end"],
            "per_layer": traced["per_layer"],
            "final_lines": {"trace0": plain_final, "trace1": traced_final},
        }
        print(f"== {name}  correct={plain_final['correct'] and traced_final['correct']}  "
              f"attempted={plain_final['attempted']}+{traced_final['attempted']}  "
              f"failed={plain_final['failed']}+{traced_final['failed']}")
        if WORKLOADS[name].ungated:
            print(f"  not in BENCHMARK.json: {WORKLOADS[name].ungated}")
            collected[name]["ungated"] = WORKLOADS[name].ungated
        for metric, s in plain["end_to_end"].items():
            print(f"  {metric:<12} {s['value']:>12.6g} {s['unit']:<6} value  median {s['median']:.6g}  "
                  f"{s['high_label']} {s['high']:.6g}  n={s['n']}")
        if name == "train_4x":
            print(f"  (ROADMAP baseline train at re-anchor: {ROADMAP_TRAIN_4X_S} s; reference only, not a gate)")
        for metric, value in sorted(traced["per_layer"].items()):
            if value:
                print(f"    {metric:<44} {value:.6g}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "workloads": collected},
                                       indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
