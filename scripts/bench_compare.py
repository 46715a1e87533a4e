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
- `exact`: otherwise, when each side has at least two runs and every run
  of each side gave the same value, so the ratio is the whole change and
  no spread exists for a gain to clear (one run per side shows no spread
  either way);
- `within bound` otherwise.

Before the metrics it prints each side's failed and attempted fleet runs
with a verdict of their own: `regression` when the change failed a larger
share of its runs than the parent, `within bound` otherwise.  Then it prints
whether all of each side's runs passed their correctness checks (the
golden trace among them, which fails no fleet run), with the verdict
`regression` when the parent's all did and the change's did not, `within
bound` otherwise.

Exit status: 0 when nothing regressed, 1 when something did, 2 when a FILE
cannot be read, holds no JSON object or holds no pairs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_pairs import SIDES, end_to_end_metrics, read_record

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
    runs = [side["runs"] for side in (parent, change)]
    if all(len(values) > 1 and min(values) == max(values) for values in runs):
        return "exact"
    won = pairs >= GAIN_PAIRS and measured["wins"] >= GAIN_SHARE * pairs
    if won and gap > parent["q3"] - parent["q1"]:
        return "gain"
    return "within bound"


def failed_verdict(record: dict) -> str:
    """The verdict on the share of fleet runs that failed a check."""
    share = {
        side: record["failed"][side] / record["attempted"][side] if record["attempted"][side] else 0
        for side in SIDES
    }
    return "regression" if share["change"] > share["parent"] else "within bound"


def correct_verdict(record: dict) -> str:
    """The verdict on whether every run passed its correctness checks."""
    correct = record["correct"]
    return "regression" if correct["parent"] and not correct["change"] else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path, metavar="FILE", help="record with pairs")
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()
    regressed = False
    for path in args.files:
        try:
            doc = read_record(path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        if not doc.get("pairs"):
            print(f"error: {path} holds no pairs", file=sys.stderr)
            return 2
        for key, record in doc["pairs"].items():
            print(f"{path.name}: {key}, {record['pairs']} pairs")
            runs = {side: f"{record['failed'][side]}/{record['attempted'][side]}" for side in SIDES}
            found = failed_verdict(record)
            print(f"  {'failed':16} parent {runs['parent']:<12} change {runs['change']:<12} {found}")
            regressed |= found == "regression"
            correct = record["correct"]
            found = correct_verdict(record)
            print(
                f"  {'correct':16} parent {correct['parent']!s:<12} "
                f"change {correct['change']!s:<12} {found}"
            )
            regressed |= found == "regression"
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
