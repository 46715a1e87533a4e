#!/usr/bin/env python3
"""Where a benchmark fleet's memory goes: run the first fleet of a workload
through `bench/measure.run_fleet` under tracemalloc, the way the benchmark
measures `peak_mem_mb` (after the same environment record), then print the peak and the source lines whose
allocations are still held once the run is over (the simulator and its
trace are kept alive while the snapshot is taken).

Usage: python3 scripts/mem_breakdown.py --workload W [--seed N] [--top K]

The program is imported from this checkout's `src/` and the fleet code from
its `bench/`; run it from anywhere.
"""

import argparse
import linecache
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import fleet  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402


def _where(frame) -> str:
    path = Path(frame.filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return f"{path}:{frame.lineno}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(fleet.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=10, help="allocation lines to list")
    args = parser.parse_args(argv)

    first = fleet.generate(args.workload, args.seed)[0]
    # bench/run.py records its environment before the measured fleet; what
    # that imports leaves the interpreter's interned-string table with room,
    # which changes the peak by several hundred kB
    run.environment(args.seed, args.workload)
    tracemalloc.start(2)  # the caller names a generated constructor's line
    try:
        sim, trace, _, _ = measure.run_fleet(first)
        peak = tracemalloc.get_traced_memory()[1]
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.statistics("traceback")
    held = sum(s.size for s in stats)
    print(
        f"{args.workload} seed {args.seed} fleet 0: "
        f"peak {peak / 1e6:.2f} MB, held after the run {held / 1e6:.2f} MB "
        f"({len(sim.icds)} devices, {len(trace.notes)} trace lines)"
    )
    for s in stats[: args.top]:
        # a traceback lists its innermost frame last; code made at run time
        # (a NamedTuple's __new__) has no source line, so show its caller
        frames = list(s.traceback)[::-1]
        frame = next((f for f in frames if not f.filename.startswith("<")), frames[0])
        code = linecache.getline(frame.filename, frame.lineno).strip()
        print(
            f"{s.size / 1e6:8.2f} MB {s.count:8d} blocks  "
            f"{_where(frame)}  {code}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
