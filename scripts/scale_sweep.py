#!/usr/bin/env python3
"""Scale curve of a benchmark workload: one fleet of N devices per size,
with the start window and `max_time` grown with N so that starts stay as
dense as in the workload (`update-storm`: 300 devices over 20 s, the
default; `lossy-churn`: 1,500 devices over 5 s; `honest-fleet`: 2,000
devices over 5 s).

    python3 scripts/scale_sweep.py --workload lossy-churn --repeats 15 --out BENCH_19.json
    python3 scripts/scale_sweep.py --workload lossy-churn --repeats 15 --checkout ../parent --label parent --out BENCH_19.json
    python3 scripts/scale_sweep.py --workload lossy-churn --repeats 15 --parent ../parent --change . --out BENCH_27.json
    python3 scripts/scale_sweep.py --workload honest-fleet --repeats 15 --out BENCH_20.json
    python3 scripts/scale_sweep.py --workload lossy-churn --sizes 1,100 --repeats 1 --out /tmp/scale.json

For each N it prints and records the median run of `--repeats` timed
runs, the one whose calibrated set-up plus run is the median (the lower of
the two middle runs for an even count): its `setup_s`, `run_s` and
`host_s`, its set-up plus run in µs per device and its run in µs per trace
line.  It also records the traced peak memory of one more run
(tracemalloc, as `peak_mem_mb` is measured) in bytes per device, and the
median, first and third quartile of the µs per trace line over all repeats
(`us_per_trace_line_median`, `_q1`, `_q3`) and of the set-up in µs per
device (`setup_us_per_device_median`, `_q1`, `_q3`), which show how far
the runs spread.  The median run is kept rather than the fastest: one slow
reference loop beside a run shrinks that run's calibrated times, so the
fastest run is often an outlier.  A run whose cost per device stays flat as N grows does a
bounded amount of work per frame.  It also records `broadcast_lines`, the
trace lines of the WBRAC's MPC broadcasts (`AccessParameterMessage`).  `lossy-churn`
broadcasts to every device each second of a window that grows with N, so
these lines grow as N² and most of its lines are broadcasts at large N: µs
per trace line is its fair unit, not µs per device.

Times are calibrated as the benchmark's end-to-end times are: each run sits
between two runs of `bench/measure.py`'s fixed reference loop and is scaled
by `REF_S / reference time`, so a host whose speed drifts during the sweep
does not move one size against another.  The sizes also take turns, one run
of each per repeat.  `host_s` is the median run's uncalibrated set-up plus
run.

The program and the fleet generator are imported from `--checkout`'s `src/`
and `bench/` (default: this checkout), so one script measures two commits
alike.  The run is stored under `--label` in `--out`, beside the runs of
other labels already there, which must be of the same workload, and any
pairs of `scripts/bench_pairs.py`, with `bench/run.py`'s environment
record, which holds the measured checkout's git revision.

With `--parent DIR --change DIR` it sweeps both checkouts in alternation
instead, so that a host whose speed drifts during the sweep does not move
one commit against the other: each repeat of each side runs in a fresh
interpreter that imports that side's checkout, in the order parent,
change, change, parent, parent, change, ... (ABBA), after one untimed run
of each size, and the runs are stored under the labels `parent` and
`change`.  Each side's peak memory is traced in its first repeat.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SIZES = (1, 100, 300, 1_000, 3_000, 6_000)
SEED = 1
# max_time beyond the end of the start window, as in each workload
SETTLE_MS = {"update-storm": 40_000, "lossy-churn": 55_000, "honest-fleet": 55_000}
BROADCAST = "AccessParameterMessage"


def sized_params(fleet, workload: str, devices: int):
    """The workload's parameters for one fleet of `devices`, with the start
    window grown in proportion and `max_time` the workload's settling time
    past it."""
    base = fleet.WORKLOADS[workload]
    window = max(1, base.start_window_ms * devices // base.devices)
    return dataclasses.replace(
        base,
        devices=devices,
        fleets=1,
        start_window_ms=window,
        max_time=base.start_at + window + SETTLE_MS[workload],
    )


def raw_sweep(fleet, measure, workload: str, sizes: list[int], repeats: int, peak: bool = True):
    """For each N: its fleet's parameters and outcome, the calibrated
    (setup_s, run_s) and the host set-up plus run of each of `repeats`
    timed runs (`runs`), and the traced peak bytes of one more run
    (`peak_bytes`, None unless `peak`)."""
    params = {n: sized_params(fleet, workload, n) for n in sizes}
    fleets = {n: fleet.generate(workload, SEED, params[n])[0] for n in sizes}
    runs = {n: [] for n in sizes}  # N -> (calibrated setup_s, calibrated run_s, host_s) per repeat
    outcome = {}  # N -> (trace lines, broadcast lines, devices authenticated), the same every run
    reference = measure.reference_s()
    for _ in range(repeats):
        for n in sizes:
            sim, trace, setup_s, run_s = measure.run_fleet(fleets[n])
            before, reference = reference, measure.reference_s()
            scale = measure.REF_S * 2 / (before + reference)
            runs[n].append((setup_s * scale, run_s * scale, setup_s + run_s))
            authenticated = sum(a.state_name == "Authenticated" for a in sim.icds.values())
            broadcasts = sum(
                1 for src, tag in zip(trace.senders, trace.tags) if tag == BROADCAST and src == "wbrac"
            )
            outcome[n] = len(trace.notes), broadcasts, authenticated
            del sim, trace
    return [
        {
            "devices": n,
            "start_window_ms": params[n].start_window_ms,
            "max_time": params[n].max_time,
            "trace_lines": outcome[n][0],
            "broadcast_lines": outcome[n][1],
            "authenticated": outcome[n][2],
            "runs": runs[n],
            "peak_bytes": peak_bytes(measure, fleets[n]) if peak else None,
        }
        for n in sizes
    ]


def summarize(raw: list[dict]) -> list[dict]:
    """The recorded row of each N of `raw_sweep`: the median run and the
    quartiles over all runs."""
    rows = []
    for size in raw:
        n, lines, runs = size["devices"], size["trace_lines"], size["runs"]
        by_total = sorted(runs, key=lambda run: run[0] + run[1])
        setup_s, run_s, host_s = by_total[(len(by_total) - 1) // 2]
        q1, median, q3 = quartiles([run[1] * 1e6 / lines for run in runs])
        setup_q1, setup_median, setup_q3 = quartiles([run[0] * 1e6 / n for run in runs])
        rows.append({
            "devices": n,
            "start_window_ms": size["start_window_ms"],
            "max_time": size["max_time"],
            "trace_lines": lines,
            "broadcast_lines": size["broadcast_lines"],
            "authenticated": size["authenticated"],
            "setup_s": setup_s,
            "run_s": run_s,
            "host_s": host_s,
            "us_per_device": (setup_s + run_s) * 1e6 / n,
            "us_per_trace_line": run_s * 1e6 / lines,
            "us_per_trace_line_median": median,
            "us_per_trace_line_q1": q1,
            "us_per_trace_line_q3": q3,
            "setup_us_per_device_median": setup_median,
            "setup_us_per_device_q1": setup_q1,
            "setup_us_per_device_q3": setup_q3,
            "peak_bytes_per_device": size["peak_bytes"] / n,
        })
    return rows


def sweep(fleet, measure, workload: str, sizes: list[int], repeats: int) -> list[dict]:
    return summarize(raw_sweep(fleet, measure, workload, sizes, repeats))


def load_checkout(checkout: Path):
    """The fleet generator, `bench/measure.py` and `bench/run.py` of
    `checkout`, with its program first on the import path."""
    sys.path.insert(0, str(checkout.resolve() / "bench"))
    import fleet
    import run

    run.use_checkout_program()
    import measure

    return fleet, measure, run


def one_repeat(checkout: str, workload: str, sizes: str, peak: str) -> None:
    """Print, as one JSON line, `checkout`'s environment record and one
    repeat of `raw_sweep` over the comma-separated `sizes`, tracing peak
    memory if `peak` is "peak": what `alternating_sweeps` runs in a fresh
    interpreter for each side.  A first repeat warms the interpreter up, as
    `bench/measure.py`'s untimed pass does, and is dropped."""
    fleet, measure, run = load_checkout(Path(checkout))
    raw = raw_sweep(fleet, measure, workload, [int(n) for n in sizes.split(",")], 2, peak == "peak")
    for size in raw:
        del size["runs"][0]
    print(json.dumps({"environment": run.environment(SEED, workload), "sizes": raw}))


def alternating_sweeps(checkouts: dict, workload: str, sizes: list[int], repeats: int) -> dict:
    """The runs of `parent` and `change`, each repeat of each side in a
    fresh interpreter, in ABBA order."""
    here = str(Path(__file__).resolve().parent)
    code = (
        f"import sys; sys.path.insert(0, {here!r}); "
        "import scale_sweep; scale_sweep.one_repeat(*sys.argv[1:])"
    )
    environment, raw = {}, {}  # side -> its environment record, its raw sizes so far
    for i in range(repeats):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            peak = "-" if side in raw else "peak"
            argv = [str(checkouts[side]), workload, ",".join(map(str, sizes)), peak]
            done = subprocess.run(
                [sys.executable, "-c", code, *argv], cwd=checkouts[side], capture_output=True, text=True
            )
            if done.returncode != 0:
                raise RuntimeError(f"the {side} sweep in {checkouts[side]} failed: {done.stderr}")
            record = json.loads(done.stdout)
            print(f"  repeat {i + 1}/{repeats}: {side}", flush=True)
            if side in raw:
                for have, size in zip(raw[side], record["sizes"]):
                    have["runs"] += size["runs"]
            else:
                environment[side], raw[side] = record["environment"], record["sizes"]
    return {
        side: {"environment": environment[side], "repeats": repeats, "sizes": summarize(raw[side])}
        for side in SIDES
    }


def print_rows(rows: list[dict]) -> None:
    for row in rows:
        print(
            f"  N={row['devices']:>6}  {row['us_per_device']:8.1f} us/device  "
            f"{row['us_per_trace_line']:6.2f} us/line (median {row['us_per_trace_line_median']:.2f} "
            f"[{row['us_per_trace_line_q1']:.2f}, {row['us_per_trace_line_q3']:.2f}])  "
            f"set-up {row['setup_us_per_device_median']:.1f} us/device "
            f"[{row['setup_us_per_device_q1']:.1f}, {row['setup_us_per_device_q3']:.1f}]  "
            f"{row['peak_bytes_per_device']:8.0f} B/device  "
            f"({row['authenticated']}/{row['devices']} authenticated, "
            f"{row['trace_lines']} lines, {row['broadcast_lines']} broadcast)"
        )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the
    values (`statistics.quantiles`' inclusive method); one value is all
    three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def peak_bytes(measure, f) -> int:
    tracemalloc.start()
    try:
        measure.run_fleet(f)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SETTLE_MS), default="update-storm")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument("--parent", type=Path, help="with --change: sweep both, alternating")
    parser.add_argument("--change", type=Path, help="with --parent: sweep both, alternating")
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)), help="comma-separated N")
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed runs per size; median run and quartiles kept"
    )
    parser.add_argument("--label", default="change", help="key of this run in --out")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to add the run to")
    args = parser.parse_args(argv)
    try:
        sizes = [int(n) for n in args.sizes.split(",")]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes or min(sizes) < 1 or args.repeats < 1:
        parser.error("every size and --repeats must be at least 1")
    if (args.parent is None) != (args.change is None):
        parser.error("--parent and --change go together")
    checkouts = {"parent": args.parent, "change": args.change}
    for side, checkout in checkouts.items():
        if checkout is not None and not (checkout / "bench" / "run.py").is_file():
            parser.error(f"--{side} {checkout} has no bench/run.py")

    workload = args.workload
    try:
        doc = json.loads(args.out.read_text())
    except FileNotFoundError:
        doc = {}
    # a file may hold only the pairs of `scripts/bench_pairs.py` so far
    doc = {"workload": workload, "seed": SEED, "runs": {}, **doc}
    if doc["workload"] != workload:
        print(f"error: {args.out} holds {doc['workload']} runs, not {workload}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    if args.parent is None:
        fleet, measure, run = load_checkout(args.checkout)
        environment = run.environment(SEED, workload)
        print(f"{workload} seed {SEED}, revision {environment['git_revision']}")
        rows = sweep(fleet, measure, workload, sizes, args.repeats)
        print_rows(rows)
        runs = {args.label: {"environment": environment, "repeats": args.repeats, "sizes": rows}}
    else:
        print(f"{workload} seed {SEED}, parent and change alternating")
        runs = alternating_sweeps(
            {side: checkout.resolve() for side, checkout in checkouts.items()},
            workload, sizes, args.repeats,
        )
        for side, run in runs.items():
            print(f"{side}, revision {run['environment']['git_revision']}")
            print_rows(run["sizes"])
    print(f"  swept in {time.perf_counter() - started:.1f} s")

    doc["runs"].update(runs)
    try:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
