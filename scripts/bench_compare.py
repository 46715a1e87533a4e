#!/usr/bin/env python3
"""Verdicts on the parent/change pairs that `scripts/bench_pairs.py` records.

    python3 scripts/bench_compare.py BENCH_24.json
    python3 scripts/bench_compare.py BENCH_24.json BENCH_25.json

For each record in the `pairs` object of each FILE and each end-to-end
metric that `BENCHMARK.json` declares, it prints the parent's and the
change's median, their ratio (change / parent), the pairs the change won
and the metric's bound, with a verdict:

- `gain`: of at least ten pairs, the change won at least nine tenths, ties
  counting for neither side, and its median is better than the parent's by
  more than the distance between the parent's quartiles;
- `regression`: the change's median is worse than the parent's by more
  than the bound, a fraction of the parent's median;
- `exact`: otherwise, when every run of each side gave the same value, so
  the ratio is the whole change and no spread exists for a gain to clear;
- `within bound` otherwise.

Exit status: 0 when no metric regressed, 1 when one did, 2 when a FILE
cannot be read or holds no pairs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_pairs import end_to_end_metrics

GAIN_PAIRS = 10  # the fewest pairs that can show a gain
GAIN_SHARE = 0.9  # of the pairs, that a gain must win


def verdict(record: dict, metric: dict) -> str:
    """The verdict on one metric of one pairs record."""
    pairs = record["pairs"]
    measured = record["metrics"][metric["name"]]
    parent, change = measured["parent"], measured["change"]
    sign = 1 if metric["better"] == "higher" else -1
    gap = sign * (change["median"] - parent["median"])  # > 0: the change is better
    if gap < 0 and -gap > metric["bound"] * abs(parent["median"]):
        return "regression"
    if all(min(side["runs"]) == max(side["runs"]) for side in (parent, change)):
        return "exact"
    won = pairs >= GAIN_PAIRS and measured["wins"] >= GAIN_SHARE * pairs
    if won and gap > parent["q3"] - parent["q1"]:
        return "gain"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path, metavar="FILE", help="record with pairs")
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()
    regressed = False
    for path in args.files:
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        if not doc.get("pairs"):
            print(f"error: {path} holds no pairs", file=sys.stderr)
            return 2
        for key, record in doc["pairs"].items():
            print(f"{path.name}: {key}, {record['pairs']} pairs")
            for metric in metrics:
                measured = record["metrics"][metric["name"]]
                parent, change = measured["parent"]["median"], measured["change"]["median"]
                ratio = f"{change / parent:.4f}" if parent else "-"
                found = verdict(record, metric)
                print(
                    f"  {metric['name']:16} parent {parent:<12.6g} change {change:<12.6g} "
                    f"ratio {ratio:7}  won {measured['wins']}/{record['pairs']}  "
                    f"bound {metric['bound']}  {found}"
                )
                regressed |= found == "regression"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
