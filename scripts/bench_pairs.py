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
import subprocess
import sys
from pathlib import Path

from scale_sweep import quartiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def end_to_end_metrics() -> list[dict]:
    """The end-to-end metrics `BENCHMARK.json` declares: name, unit, better, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One `bench/run.py --trace 0` run in `checkout`: its environment line
    and its result line."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:  # 1: a check failed, the result still printed
        raise RuntimeError(f"bench/run.py in {checkout} exited {done.returncode}: {done.stderr}")
    return json.loads(lines[0])["env"], json.loads(lines[-1])


def pairs(checkouts: dict, workload: str, seed: int, count: int, seconds: float) -> dict:
    runs = {side: [] for side in SIDES}  # side -> its result lines, in pair order
    env = {}
    for i in range(count):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            env[side], result = run_bench(checkouts[side], workload, seed, seconds)
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
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"--{side} {checkout} has no bench/run.py")

    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {args.seconds} s", flush=True)
    record = pairs(checkouts, args.workload, args.seed, args.pairs, args.seconds)
    for name, metric in record["metrics"].items():
        parent, change = metric["parent"], metric["change"]
        print(
            f"  {name:16} parent {parent['median']:.6g} [{parent['q1']:.6g}, {parent['q3']:.6g}]  "
            f"change {change['median']:.6g} [{change['q1']:.6g}, {change['q3']:.6g}]  "
            f"{metric['unit']}, change better in {metric['wins']}/{args.pairs}"
        )

    try:
        doc = json.loads(args.out.read_text())
    except FileNotFoundError:
        doc = {}
    doc.setdefault("pairs", {})[f"{args.workload} seed {args.seed}"] = record
    try:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0 if all(record["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
