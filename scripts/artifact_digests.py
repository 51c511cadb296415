#!/usr/bin/env python3
"""Print the sha256 of every artifact of the CLI chain, to check that a
change leaves the outputs byte-identical.

For each seed this runs ``simulate``, ``train``, ``refine`` and ``eval`` (on
the raw and on the refined detections) through ``ucowod.cli.main`` in a
temporary directory, with the given RunConfig overrides, and prints one JSON
line: the overrides and, per seed, the digest of each artifact and the
scorecard of the refined detections. Save the line from one checkout and
pass it to ``--compare`` from another: the script then exits 1, names the
first seed and file whose bytes differ and prints every scorecard value
that moved, old -> new.

    PYTHONPATH=src python scripts/artifact_digests.py --seeds 0 1 2 > before.json
    PYTHONPATH=src python scripts/artifact_digests.py --seeds 0 1 2 --compare before.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from ucowod.cli import main as cli_main

SCORECARD = ("map_known", "wi", "a_ose", "uc_map", "uc_recall")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--overrides", default="{}", help="JSON object of RunConfig overrides")
    parser.add_argument("--compare", default=None, help="a line this script printed before")
    return parser.parse_args()


def run_chain(work: Path, seed: int, config_path: Path) -> tuple[dict[str, str], dict]:
    """Run the four stages for one seed in ``work``; the artifact digests
    and the refined scorecard."""
    stages = [
        ["simulate", "--out-dir", work, "--seed", seed, "--config", config_path],
        ["train", "--dataset", work / "dataset.json", "--out-dir", work],
        ["refine", "--dataset", work / "dataset.json", "--model", work / "model.json", "--out-dir", work],
        ["eval", "--gt", work / "gt.json", "--det", work / "detections.jsonl", "--out", work / "report.json"],
        ["eval", "--gt", work / "gt.json", "--det", work / "detections_refined.jsonl",
         "--out", work / "report_refined.json"],
    ]
    for argv in stages:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"seed {seed}: {argv[0]} exited {code}")
    report = json.loads((work / "report_refined.json").read_text())
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(work.iterdir())}
    return digests, {name: report[name] for name in SCORECARD}


def first_difference(digests: dict, before: dict):
    """The first (seed, file) whose digest differs from ``before``, or None."""
    for seed, files in digests.items():
        old = before.get(seed, {})
        for name in sorted(set(files) | set(old)):
            if files.get(name) != old.get(name):
                return seed, name
    return None


def moved_scores(scorecards: dict, before: dict) -> list[str]:
    """One line per scorecard value that differs from ``before``."""
    return [
        f"seed {seed}: {name} {before[seed].get(name)} -> {scores[name]}"
        for seed, scores in scorecards.items()
        if seed in before
        for name in SCORECARD
        if scores[name] != before[seed].get(name)
    ]


def main() -> int:
    args = parse_args()
    overrides = json.loads(args.overrides)
    digests, scorecards = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "overrides.json"
        config_path.write_text(json.dumps(overrides))
        for seed in args.seeds:
            work = Path(tmp) / f"seed{seed}"
            work.mkdir()
            digests[str(seed)], scorecards[str(seed)] = run_chain(work, seed, config_path)
    print(json.dumps({"overrides": overrides, "digests": digests, "scorecards": scorecards}, sort_keys=True))
    if args.compare is None:
        return 0
    before = json.loads(Path(args.compare).read_text())
    if before.get("overrides") != overrides:
        print(f"{args.compare} was made with overrides {before.get('overrides')}", file=sys.stderr)
        return 1
    differ = first_difference(digests, before["digests"])
    if differ is not None:
        print(f"seed {differ[0]}: {differ[1]} differs from {args.compare}", file=sys.stderr)
        for line in moved_scores(scorecards, before.get("scorecards", {})):
            print(line, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
