#!/usr/bin/env python3
"""wgiot benchmark: seeded device fleets through the simulator, end to end.

    python3 bench/run.py --workload honest-fleet --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --write-manifest

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the metrics
are the end-to-end ones, from untraced runs; with `--trace 1` they are the
per-layer ones, from a traced pass (see spans.py).  `attempted` counts fleet
runs and `failed` the fleet runs that failed a correctness check; devices that
do not authenticate are a measured outcome of the protocol, reported in the
ratios, not a benchmark failure.  The lines before it record the environment,
the sample counts, tail percentiles and the device failure share.

Exit status: 0 when every correctness check held, 1 when one failed (the
result is still printed), 2 when the checkout has no program to measure.
`--write-manifest` rewrites BENCHMARK.json from `manifest()` below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import fleet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WHY = {
    "honest-fleet": "Read-only verify path with the largest set-up: in-sync GUIDs, spread "
    "starts, per-link delays, no update flow, so the no-change side for access_point/wbrac work.",
    "update-storm": "MPC rotated at map-1 only, so every device runs the update flow at once: "
    "the write path, PRF- and rng-heavy, which shows the concurrency defect as failures.",
    "lossy-churn": "30% first-hop drop, MPC broadcasts to all, AuthRequest replays: the most "
    "frames, many decoded only to be dropped; auth rate at 30% drop.",
}

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("auth_per_s", "1/s", "higher", 0.25),
    ("peak_mem_mb", "MB", "lower", 0.1),
    ("auth_ok_ratio", "ratio", "higher", 0.2),
    ("sd_sync_ratio", "ratio", "higher", 0.1),
    ("sim_auth_ms_p50", "ms", "lower", 0.1),
    ("sim_auth_ms_p99", "ms", "lower", 0.1),
)


def per_layer_metrics():
    from spans import SPANS

    rows = []
    for span in SPANS:
        rows += [(f"{span}.calls", "count", "lower"), (f"{span}.self_ms", "ms", "lower")]
    rows += [
        ("simnet.us_per_event", "us", "lower"),
        ("simnet.queue_depth_max", "count", "lower"),
        ("simnet.frames.delivered", "count", "higher"),
        ("simnet.frames.dropped", "count", "lower"),
        ("simnet.frames.sunk", "count", "lower"),
        ("simnet.frames.undecodable", "count", "lower"),
        ("simnet.frames.duplicate", "count", "lower"),
        ("simnet.frames.replayed", "count", "lower"),
        ("wire.bytes_encoded", "bytes", "lower"),
        ("wire.decode.useful_ratio", "ratio", "higher"),
        ("wbrac.update.commit_ratio", "ratio", "higher"),
        ("trace_overhead_ratio", "ratio", "lower"),
        ("traced.wall_ms", "ms", "lower"),
        ("traced.unaccounted_ms", "ms", "lower"),
    ]
    return rows


RUN_SECONDS = 30


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in fleet.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_metrics()],
    }


def use_checkout_program() -> None:
    """Import wgiot from this checkout's src/, or exit 2 if it has none."""
    if not (SRC / "wgiot" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no wgiot program under {ROOT}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def environment(seed: int, workload: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "params": vars(fleet.WORKLOADS[workload]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wgiot").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def summary(result) -> list[str]:
    lines = [f"workload {result.workload} seed {result.seed}: {result.attempted} fleet runs"]
    for name, (value, unit) in result.metrics.items():
        line = f"  {name:34s} {value:.6g} {unit}"
        if name in result.tails:
            p, v = result.tails[name]
            line += f"  p{p} {v:.6g} {unit}"
        if name in result.samples:
            line += f"  (n={result.samples[name]})"
        lines.append(line)
    for name, n in result.samples.items():
        if name not in result.metrics:
            lines.append(f"  {name} = {n}")
    if result.uncalibrated:
        raw = (f"{name} {value:.6g} s" for name, value in result.uncalibrated.items())
        lines.append("  uncalibrated host-time medians: " + ", ".join(raw))
    if result.outcomes:
        devices = sum(o.devices for o in result.outcomes)
        failed = sum(o.failed for o in result.outcomes)
        lines.append(
            f"  devices attempted {devices}, failed {failed} ({failed / devices:.1%}): "
            f"not Authenticated {devices - sum(o.authenticated for o in result.outcomes)}, "
            f"SD out of sync {devices - sum(o.in_sync for o in result.outcomes)}"
        )
    checks = (f"{k}={'ok' if ok else 'FAILED'}" for k, ok in result.checks.items())
    lines.append("  checks: " + ", ".join(checks))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(fleet.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args(argv)

    use_checkout_program()
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import measure

    print(json.dumps({"env": environment(args.seed, args.workload)}))
    bench = measure.Bench(args.workload, args.seed)
    if args.trace:
        result = bench.per_layer(args.seconds, ROOT)
    else:
        result = bench.end_to_end(args.seconds, ROOT)
    print("\n".join(summary(result)))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result.metrics.items()},
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
