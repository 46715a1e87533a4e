#!/usr/bin/env python3
"""Where a benchmark fleet's set-up time goes: profile the first fleet of a
workload through what the benchmark times as `setup_s`, `parse_scenario` of
its text and then `Simulator(...)`, under cProfile, and print each
function's self and cumulative time in µs per device, the largest self
times first.

Usage: python3 scripts/setup_breakdown.py --workload W [--seed N] [--top K] [--repeat R]

The set-up runs R times (default 5) and the times are their mean, so a
function that runs once per fleet shows as its share of a device.  The
profiler adds its own cost to every call, so the figures are larger than
`setup_s` and are for comparing functions, not for reading off set-up time.
The program is imported from this checkout's `src/` and the fleet code from
its `bench/`; run it from anywhere.
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import fleet  # noqa: E402
from wgiot import scenario, simnet  # noqa: E402


def _where(func: tuple[str, int, str]) -> str:
    filename, lineno, name = func
    path = Path(filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return name if filename == "~" else f"{path}:{lineno}({name})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(fleet.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=15, help="functions to list")
    parser.add_argument("--repeat", type=int, default=5, help="set-ups to profile")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    first = fleet.generate(args.workload, args.seed)[0]
    profile = cProfile.Profile()
    for _ in range(args.repeat):
        profile.enable()
        sim = simnet.Simulator(scenario.parse_scenario(first.text), first.sim_seed)
        profile.disable()
    devices = len(sim.icds)
    stats = pstats.Stats(profile).stats  # func -> (calls, primitive calls, self, cumulative, callers)
    per_device = 1e6 / (args.repeat * devices)
    total = sum(self_s for _, _, self_s, _, _ in stats.values()) * per_device
    print(
        f"{args.workload} seed {args.seed} fleet 0: {devices} devices, "
        f"{total:.1f} µs per device profiled (mean of {args.repeat} set-ups)"
    )
    print(f"{'self µs':>8} {'cum µs':>8} {'calls/dev':>9}  function")
    rows = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)
    for func, (calls, _, self_s, cum_s, _) in rows[: args.top]:
        print(
            f"{self_s * per_device:8.2f} {cum_s * per_device:8.2f} "
            f"{calls / (args.repeat * devices):9.3f}  {_where(func)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
