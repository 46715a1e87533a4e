"""Command-line front end: run scenario files and emit PRF conformance vectors.

Exit codes: 0 all expectations held, 1 scenario/parse error or an output
file that cannot be written, 2 expectation failed.  The trace file, when
requested, is written even on failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import crypto
from .scenario import check_expects, load_scenario
from .simnet import ScenarioError, Simulator

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXPECT_FAILED = 2


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        if args.max_time is not None:
            scenario = dataclasses.replace(scenario, max_time=args.max_time)  # checked as built
        sim = Simulator(scenario, seed=args.seed)
        trace = sim.run()
    except (ScenarioError, crypto.CryptoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.trace and not _write(args.trace, trace.serialize()):
        return EXIT_ERROR
    failures = check_expects(sim)
    for failure in failures:
        print(f"expect failed: {failure}", file=sys.stderr)
    return EXIT_EXPECT_FAILED if failures else EXIT_OK


def _cmd_vectors(args) -> int:
    backend = crypto.BACKENDS.get(args.backend)
    if backend is None:
        print(f"error: unknown backend {args.backend!r}", file=sys.stderr)
        return EXIT_ERROR
    text = crypto.generate_vectors(backend)
    if not args.out:
        sys.stdout.write(text)
    elif not _write(args.out, text):
        return EXIT_ERROR
    return EXIT_OK


def _write(path: str, text: str) -> bool:
    """Write `text` to `path`; on failure print the reason and return False."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wgiot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file and check its expectations")
    run_p.add_argument("scenario", help="path to a scenario file")
    run_p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    run_p.add_argument("--trace", help="write the run trace to this path")
    run_p.add_argument("--max-time", type=int, default=None, help="virtual-time cap in ms")
    run_p.set_defaults(func=_cmd_run)

    vec_p = sub.add_parser("vectors", help="emit PRF conformance test vectors")
    vec_p.add_argument("--backend", default="hmac-sha256")
    vec_p.add_argument("--out", help="write vectors here instead of stdout")
    vec_p.set_defaults(func=_cmd_vectors)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
