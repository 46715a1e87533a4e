#!/usr/bin/env python3
"""Where a benchmark fleet's set-up or run time goes: profile one phase of
the first fleet of a workload under cProfile, and print each function's
self and cumulative time and its calls per unit of the phase, the largest
self times first.

Usage: python3 scripts/setup_breakdown.py --workload W [--phase setup|run] [--seed N] [--top K] [--repeat R]

`--phase setup` (the default) profiles what the benchmark times as
`setup_s`, `parse_scenario` of the fleet's text and then `Simulator(...)`,
per device.  `--phase run` profiles what it times as `run_s`, only
`Simulator.run()` of a simulator built unprofiled, per event, that is per
`Simulator.step()` call.

The phase runs R times (default 5) and the times are their mean, so a
function that runs once per fleet shows as its share of a unit.  The
profiler adds its own cost to every call, so the figures are larger than
`setup_s` or `run_s` and are for comparing functions, not for reading off
the phase's time.  The program is imported from this checkout's `src/` and
the fleet code from its `bench/`; run it from anywhere.
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


# phase -> (its unit, the unit's plural, the unit in the calls column, one pass)
PHASES = {
    "setup": ("device", "devices", "dev", "set-ups"),
    "run": ("step", "steps", "step", "runs"),
}


def _where(func: tuple[str, int, str]) -> str:
    filename, lineno, name = func
    path = Path(filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return name if filename == "~" else f"{path}:{lineno}({name})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(fleet.WORKLOADS))
    parser.add_argument("--phase", choices=sorted(PHASES), default="setup")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=15, help="functions to list")
    parser.add_argument("--repeat", type=int, default=5, help="times the phase is profiled")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    first = fleet.generate(args.workload, args.seed)[0]
    setup = args.phase == "setup"
    profile = cProfile.Profile()
    for _ in range(args.repeat):
        if setup:
            profile.enable()
        sim = simnet.Simulator(scenario.parse_scenario(first.text), first.sim_seed)
        if not setup:
            profile.enable()
            sim.run()
        profile.disable()
    stats = pstats.Stats(profile).stats  # func -> (calls, primitive calls, self, cumulative, callers)
    if setup:
        units = len(sim.icds)
    else:
        step = simnet.Simulator.step.__code__
        units = stats[step.co_filename, step.co_firstlineno, step.co_name][0] // args.repeat
    unit, plural, column, passes = PHASES[args.phase]
    per_unit = 1e6 / (args.repeat * units)
    total = sum(self_s for _, _, self_s, _, _ in stats.values()) * per_unit
    print(
        f"{args.workload} seed {args.seed} fleet 0: {units} {plural}, "
        f"{total:.1f} µs per {unit} profiled (mean of {args.repeat} {passes})"
    )
    print(f"{'self µs':>8} {'cum µs':>8} {'calls/' + column:>10}  function")
    rows = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)
    for func, (calls, _, self_s, cum_s, _) in rows[: args.top]:
        print(
            f"{self_s * per_unit:8.2f} {cum_s * per_unit:8.2f} "
            f"{calls / (args.repeat * units):10.3f}  {_where(func)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
