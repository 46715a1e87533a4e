#!/usr/bin/env python3
"""Scale curve of a benchmark workload: one fleet of N devices per size,
with the start window and `max_time` grown with N so that starts stay as
dense as in the workload (`update-storm`: 300 devices over 20 s, the
default; `lossy-churn`: 1,500 devices over 5 s).

    python3 scripts/scale_sweep.py --workload lossy-churn --repeats 15 --out BENCH_19.json
    python3 scripts/scale_sweep.py --workload lossy-churn --repeats 15 --checkout ../parent --label parent --out BENCH_19.json
    python3 scripts/scale_sweep.py --workload lossy-churn --sizes 1,100 --repeats 1 --out /tmp/scale.json

For each N it prints and records the best of `--repeats` timed runs:
set-up plus run in µs per device, run in µs per trace line, and the traced
peak memory of one more run (tracemalloc, as `peak_mem_mb` is measured) in
bytes per device.  Beside the best run it records the median, first and
third quartile of the µs per trace line over all repeats
(`us_per_trace_line_median`, `_q1`, `_q3`): a best-of-N time moves with
host contention between two sweeps of one commit, and the quartiles show
how far.  A run whose cost per device stays flat as N grows does a
bounded amount of work per frame.  It also records `broadcast_lines`, the
trace lines of the WBRAC's MPC broadcasts (`AccessParameterMessage`).  `lossy-churn`
broadcasts to every device each second of a window that grows with N, so
these lines grow as N² and most of its lines are broadcasts at large N: µs
per trace line is its fair unit, not µs per device.

Times are calibrated as the benchmark's end-to-end times are: each run sits
between two runs of `bench/measure.py`'s fixed reference loop and is scaled
by `REF_S / reference time`, so a host whose speed drifts during the sweep
does not move one size against another.  The sizes also take turns, one run
of each per repeat.  `host_s` is the best run's uncalibrated set-up plus run.

The program and the fleet generator are imported from `--checkout`'s `src/`
and `bench/` (default: this checkout), so one script measures two commits
alike.  The run is stored under `--label` in `--out`, beside the runs of
other labels already there, which must be of the same workload, with
`bench/run.py`'s environment record, which holds the measured checkout's
git revision.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1, 100, 300, 1_000, 3_000, 6_000)
SEED = 1
# max_time beyond the end of the start window, as in each workload
SETTLE_MS = {"update-storm": 40_000, "lossy-churn": 55_000}
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


def sweep(fleet, measure, workload: str, sizes: list[int], repeats: int) -> list[dict]:
    params = {n: sized_params(fleet, workload, n) for n in sizes}
    fleets = {n: fleet.generate(workload, SEED, params[n])[0] for n in sizes}
    best = {}  # N -> (calibrated setup_s, calibrated run_s, host_s)
    run_times = {n: [] for n in sizes}  # N -> calibrated run_s of every repeat
    outcome = {}  # N -> (trace lines, broadcast lines, devices authenticated), the same every run
    reference = measure.reference_s()
    for _ in range(repeats):
        for n in sizes:
            sim, trace, setup_s, run_s = measure.run_fleet(fleets[n])
            before, reference = reference, measure.reference_s()
            scale = measure.REF_S * 2 / (before + reference)
            run = setup_s * scale, run_s * scale, setup_s + run_s
            run_times[n].append(run[1])
            if n not in best or run[0] + run[1] < best[n][0] + best[n][1]:
                best[n] = run
            authenticated = sum(a.state_name == "Authenticated" for a in sim.icds.values())
            broadcasts = sum(
                1 for src, tag in zip(trace.senders, trace.tags) if tag == BROADCAST and src == "wbrac"
            )
            outcome[n] = len(trace.notes), broadcasts, authenticated
            del sim, trace
    rows = []
    for n in sizes:
        setup_s, run_s, host_s = best[n]
        lines, broadcast_lines, authenticated = outcome[n]
        q1, median, q3 = quartiles([s * 1e6 / lines for s in run_times[n]])
        rows.append({
            "devices": n,
            "start_window_ms": params[n].start_window_ms,
            "max_time": params[n].max_time,
            "trace_lines": lines,
            "broadcast_lines": broadcast_lines,
            "authenticated": authenticated,
            "setup_s": setup_s,
            "run_s": run_s,
            "host_s": host_s,
            "us_per_device": (setup_s + run_s) * 1e6 / n,
            "us_per_trace_line": run_s * 1e6 / lines,
            "us_per_trace_line_median": median,
            "us_per_trace_line_q1": q1,
            "us_per_trace_line_q3": q3,
            "peak_bytes_per_device": peak_bytes(measure, fleets[n]) / n,
        })
    return rows


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
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)), help="comma-separated N")
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed runs per size; best and quartiles kept"
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

    sys.path.insert(0, str(args.checkout.resolve() / "bench"))
    import fleet
    import run

    run.use_checkout_program()
    import measure

    workload = args.workload
    try:
        doc = json.loads(args.out.read_text())
    except FileNotFoundError:
        doc = {"workload": workload, "seed": SEED, "runs": {}}
    if doc["workload"] != workload:
        print(f"error: {args.out} holds {doc['workload']} runs, not {workload}", file=sys.stderr)
        return 1

    environment = run.environment(SEED, workload)
    print(f"{workload} seed {SEED}, revision {environment['git_revision']}")
    started = time.perf_counter()
    rows = sweep(fleet, measure, workload, sizes, args.repeats)
    for row in rows:
        print(
            f"  N={row['devices']:>6}  {row['us_per_device']:8.1f} us/device  "
            f"{row['us_per_trace_line']:6.2f} us/line (median {row['us_per_trace_line_median']:.2f} "
            f"[{row['us_per_trace_line_q1']:.2f}, {row['us_per_trace_line_q3']:.2f}])  "
            f"{row['peak_bytes_per_device']:8.0f} B/device  "
            f"({row['authenticated']}/{row['devices']} authenticated, "
            f"{row['trace_lines']} lines, {row['broadcast_lines']} broadcast)"
        )
    print(f"  swept in {time.perf_counter() - started:.1f} s")

    doc["runs"][args.label] = {"environment": environment, "repeats": args.repeats, "sizes": rows}
    try:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
