#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 scripts/bench_pairs.py --parent ../parent --change . --workload honest-fleet --pairs 10 --seconds 30 --out BENCH_24.json
    python3 scripts/bench_pairs.py --parent . --change . --workload update-storm --pairs 1 --seconds 0.5 --out /tmp/pairs.json

Each pair runs `bench/run.py --trace 0` once in each checkout, unchanged
and from that checkout's own files; the parent runs first in even pairs
(counting from 0) and the change first in odd ones, so a host that drifts
during the pairs does not favour one side.  For each end-to-end metric that
`BENCHMARK.json` declares it records each side's value in every run, their
median and first and third quartile, and `wins`, the pairs in which the
change's value is better than the parent's (ties count for neither side).
It also records each side's environment line (`git_revision`,
`source_sha256`, Python, CPU) and its fleet runs attempted and failed.

The record is stored under "<workload> seed <seed>" in the `pairs` object
of `--out`, beside whatever else the file already holds, such as a scale
sweep of `scripts/scale_sweep.py`.  Exit status: 0 when every run passed
its correctness checks, 1 when one did not (the record is still written).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def end_to_end_metrics() -> list[dict]:
    """The end-to-end metrics `BENCHMARK.json` declares: name, unit, better, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the
    values (`statistics.quantiles`' inclusive method); one value is all
    three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def resolve_checkouts(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """`--parent` and `--change`, resolved; a usage error when one has no
    `bench/run.py`."""
    found = {side: getattr(args, side).resolve() for side in SIDES}
    for side, checkout in found.items():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"--{side} {checkout} has no bench/run.py")
    return found


def alternate(checkouts: dict, argvs: list[list[str]], accept=(0,)):
    """Run `python <argv>` in each checkout once per argv of `argvs`, one
    round each, with the parent first in even rounds (counting from 0) and
    the change first in odd ones: parent, change, change, parent, ...
    (ABBA).  Yield (round, side, completed process) of each run; a run that
    exits with a code not in `accept` raises RuntimeError naming its side."""
    for i, argv in enumerate(argvs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            done = subprocess.run(
                [sys.executable, *argv], cwd=checkouts[side], capture_output=True, text=True
            )
            if done.returncode not in accept:
                raise RuntimeError(
                    f"the {side} run in {checkouts[side]} exited {done.returncode}: {done.stderr}"
                )
            yield i, side, done


def read_out(path: Path) -> dict:
    """The JSON object that `path` holds, or an empty one if it does not exist."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def write_out(path: Path, doc: dict) -> int:
    """Write `doc` to `path`: 0, or 1 after saying why it could not."""
    try:
        path.write_text(json.dumps(doc, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def pairs(checkouts: dict, workload: str, seed: int, count: int, seconds: float) -> dict:
    argv = ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    runs = {side: [] for side in SIDES}  # side -> its result lines, in pair order
    env = {}
    # exit 1: a check failed, and the result line is still printed
    for i, side, done in alternate(checkouts, [argv] * count, accept=(0, 1)):
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        if "metrics" not in result:
            raise RuntimeError(
                f"the {side} run in {checkouts[side]} printed no result: {done.stderr}"
            )
        env[side] = json.loads(lines[0])["env"]
        runs[side].append(result)
        values = result["metrics"]
        print(
            f"  pair {i + 1}/{count} {side:6}  setup_s {values['setup_s']['value']:.6f}  "
            f"run_s {values['run_s']['value']:.6f}  correct {result['correct']}",
            flush=True,
        )
    metrics = {}
    for metric in end_to_end_metrics():
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(
            sign * (change - parent) > 0 for parent, change in zip(values["parent"], values["change"])
        )
        record = {"unit": metric["unit"], "better": metric["better"], "wins": wins}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            record[side] = {"median": median, "q1": q1, "q3": q3, "runs": values[side]}
        metrics[name] = record
    return {
        "workload": workload,
        "seed": seed,
        "pairs": count,
        "seconds": seconds,
        "env": env,
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30, help="bench/run.py --seconds")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to add the pairs to")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    checkouts = resolve_checkouts(parser, args)

    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {args.seconds} s", flush=True)
    record = pairs(checkouts, args.workload, args.seed, args.pairs, args.seconds)
    for name, metric in record["metrics"].items():
        parent, change = metric["parent"], metric["change"]
        print(
            f"  {name:16} parent {parent['median']:.6g} [{parent['q1']:.6g}, {parent['q3']:.6g}]  "
            f"change {change['median']:.6g} [{change['q1']:.6g}, {change['q3']:.6g}]  "
            f"{metric['unit']}, change better in {metric['wins']}/{args.pairs}"
        )

    doc = read_out(args.out)
    doc.setdefault("pairs", {})[f"{args.workload} seed {args.seed}"] = record
    if write_out(args.out, doc):
        return 1
    return 0 if all(record["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
