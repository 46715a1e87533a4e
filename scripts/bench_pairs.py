#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 scripts/bench_pairs.py --parent ../parent --change . --workload honest-fleet --pairs 10 --seconds 30 --out BENCH_24.json
    python3 scripts/bench_pairs.py --parent ../parent --change . --workload lossy-churn --sizes 300,1500,6000 --pairs 5 --seconds 10 --out BENCH_30.json
    python3 scripts/bench_pairs.py --parent . --change . --workload update-storm --pairs 1 --seconds 0.5 --out /tmp/pairs.json

Each pair runs `bench/run.py --trace 0` once in each checkout, unchanged
and from that checkout's own files; the parent runs first in even pairs
(counting from 0) and the change first in odd ones, so a host that drifts
during the pairs does not favour one side.  For each end-to-end metric that
`BENCHMARK.json` declares it records each side's value in every run, their
median and first and third quartile, and `wins`, the pairs in which the
change's value is better than the parent's (ties count for neither side).
It also records each side's environment line (`git_revision`,
`source_sha256`, Python, CPU, the workload's `params`) and its fleet runs
attempted and failed, under "<workload> seed <seed>" in the `pairs` object
of `--out`, beside whatever else the file holds.

With `--sizes N,N,...`, for each N, each run calls the checkout's own
`bench/run.py` `main` on one fleet of N devices (`sized_params`), and the
first run of each side then runs that fleet once more, untimed, to count
its trace lines and the WBRAC's MPC broadcast lines.  Each N is stored, and
written before the next N runs, as a pairs record under "<workload> seed
<seed> N=<N>" that also holds `trace_lines` and `broadcast_lines` per side.

`--workload` must be a workload that each checkout's `BENCHMARK.json`
declares, and `--out` must be missing or hold a JSON object, both checked
before any run.
Exit status: 0 when every run passed its correctness checks, 1 when one did
not (the record is still written) or `--out` cannot be written, 2 on a
usage error or an `--out` that holds something else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BROADCAST = "AccessParameterMessage"


def end_to_end_metrics() -> list[dict]:
    """The end-to-end metrics `BENCHMARK.json` declares: name, unit, better, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def workload_names(checkout: Path) -> list[str]:
    """The workloads that the checkout's `BENCHMARK.json` declares."""
    return [w["name"] for w in json.loads((checkout / "BENCHMARK.json").read_text())["workloads"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the
    values (`statistics.quantiles`' inclusive method); one value is all
    three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


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


def read_record(path: Path) -> dict:
    """The JSON object that `path` holds.  OSError when it cannot be read,
    ValueError when it holds anything else or its `pairs` is no object."""
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError("it holds no JSON object")
    if not isinstance(doc.get("pairs", {}), dict):
        raise ValueError("its pairs are no JSON object")
    return doc


def sized_params(fleet, workload: str, devices: int):
    """The workload's parameters for one fleet of `devices`, with the start
    window grown in proportion and `max_time` moved with the window's end,
    so that a fleet of the workload's own size runs as the workload does."""
    base = fleet.WORKLOADS[workload]
    window = max(1, base.start_window_ms * devices // base.devices)
    max_time = base.max_time - base.start_window_ms + window
    return dataclasses.replace(
        base, devices=devices, fleets=1, start_window_ms=window, max_time=max_time
    )


def sized_run(workload: str, seed: str, seconds: str, devices: str, count: str) -> None:
    """Run `bench/run.py` `main` of the checkout in the working directory,
    as `pairs` runs `bench/run.py`, on one fleet of `devices`; if `count` is
    "count", run that fleet once more, untimed, and print its trace and
    broadcast lines as a last JSON line.  Exit with `main`'s status."""
    sys.path.insert(0, str(Path.cwd() / "bench"))
    import fleet
    import run

    fleet.WORKLOADS[workload] = sized_params(fleet, workload, int(devices))
    status = run.main(["--workload", workload, "--seed", seed, "--seconds", seconds])
    if count == "count":
        import measure

        trace = measure.run_fleet(fleet.generate(workload, int(seed))[0])[1]
        sent = zip(trace.senders, trace.tags)
        broadcasts = sum(1 for src, tag in sent if src == "wbrac" and tag == BROADCAST)
        print(json.dumps({"trace_lines": len(trace.notes), "broadcast_lines": broadcasts}))
    sys.exit(status)


def pairs(
    checkouts: dict, workload: str, seed: int, count: int, seconds: float, devices=None
) -> dict:
    """The pairs record of `count` pairs, of one fleet of `devices` if given."""
    argvs = [["bench/run.py", "--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", "0"]] * count
    if devices is not None:
        code = (
            f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            "import bench_pairs; bench_pairs.sized_run(*sys.argv[1:])"
        )
        argv = ["-c", code, workload, str(seed), str(seconds), str(devices)]
        argvs = [argv + ["count" if i == 0 else "-"] for i in range(count)]
    runs = {side: [] for side in SIDES}  # side -> its result lines, in pair order
    env = {}
    # exit 1: a check failed, and the result line is still printed
    for i, side, done in alternate(checkouts, argvs, accept=(0, 1)):
        printed = {}  # every JSON line of the run, merged
        for line in done.stdout.splitlines():
            if line.startswith("{"):
                printed.update(json.loads(line))
        if "metrics" not in printed:
            raise RuntimeError(
                f"the {side} run in {checkouts[side]} printed no result: {done.stderr}"
            )
        env[side] = printed["env"]
        runs[side].append(printed)
        values = printed["metrics"]
        print(
            f"  pair {i + 1}/{count} {side:6}  setup_s {values['setup_s']['value']:.6f}  "
            f"run_s {values['run_s']['value']:.6f}  correct {printed['correct']}",
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
    record = {
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
    for name in ("trace_lines", "broadcast_lines") if devices is not None else ():
        record[name] = {side: runs[side][0][name] for side in SIDES}
    return record


def print_record(record: dict) -> None:
    """Each metric's medians and quartiles, and per side the µs per device
    and per trace line of a sized record (set-up plus run medians over N,
    run medians over the trace lines)."""
    for name, metric in record["metrics"].items():
        parent, change = metric["parent"], metric["change"]
        print(
            f"  {name:16} parent {parent['median']:.6g} [{parent['q1']:.6g}, {parent['q3']:.6g}]  "
            f"change {change['median']:.6g} [{change['q1']:.6g}, {change['q3']:.6g}]  "
            f"{metric['unit']}, change better in {metric['wins']}/{record['pairs']}"
        )
    for side in SIDES if "trace_lines" in record else ():
        setup_s, run_s = (record["metrics"][m][side]["median"] for m in ("setup_s", "run_s"))
        devices, lines = record["env"][side]["params"]["devices"], record["trace_lines"][side]
        print(f"  {side:6} {(setup_s + run_s) * 1e6 / devices:.1f} us/device  "
              f"{run_s * 1e6 / lines:.3f} us/trace line of {lines}")


def sizes(text: str) -> list[int]:
    """`--sizes`: comma-separated device counts, each at least 1."""
    counts = [int(n) for n in text.split(",")]
    if min(counts) < 1:
        raise ValueError(text)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30, help="bench/run.py --seconds")
    parser.add_argument("--sizes", type=sizes, help="comma-separated N: one fleet of each")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to add the pairs to")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    for side, checkout in checkouts.items():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"--{side} {checkout} has no bench/run.py")
        try:
            known = workload_names(checkout)
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"--{side} {checkout}: cannot read the workloads of BENCHMARK.json: {exc}")
        if args.workload not in known:
            parser.error(
                f"--workload {args.workload} is not a workload of --{side} {checkout}; "
                f"known workloads: {', '.join(known)}"
            )
    try:
        doc = read_record(args.out) if args.out.exists() else {}
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read --out {args.out}: {exc}")

    correct = True
    for devices in args.sizes or [None]:
        key = f"{args.workload} seed {args.seed}" + (f" N={devices}" if devices else "")
        print(f"{key}: {args.pairs} pairs of {args.seconds} s", flush=True)
        record = pairs(checkouts, args.workload, args.seed, args.pairs, args.seconds, devices)
        print_record(record)
        doc.setdefault("pairs", {})[key] = record
        try:
            args.out.write_text(json.dumps(doc, indent=2) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        correct = correct and all(record["correct"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
