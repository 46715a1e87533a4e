#!/usr/bin/env python3
"""Regenerate committed artifacts: the golden honest-run trace, the PRF
conformance vector files, and the layout table and the "Who sends what" list
in frames.md.  Run from the repository root."""

from pathlib import Path

from wgiot import crypto, simnet, wire
from wgiot.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent


def main():
    scenario = load_scenario(ROOT / "scenarios" / "honest.scn")
    trace = simnet.Simulator(scenario, seed=0).run()
    golden = ROOT / "scenarios" / "golden" / "honest.trace"
    golden.parent.mkdir(exist_ok=True)
    golden.write_text(trace.serialize())
    print(f"wrote {golden}")

    for name, backend in crypto.BACKENDS.items():
        path = ROOT / "vectors" / f"{name}.txt"
        path.write_text(crypto.generate_vectors(backend))
        print(f"wrote {path}")

    # the table and the list each run from their first row after their
    # heading to the next blank line
    frames = ROOT / "frames.md"
    text = frames.read_text()
    for heading, first_row, rendered in (
        ("# Wire frames", "| Tag ", wire.frame_table()),
        ("Who sends what", "- ", simnet.route_table()),
    ):
        start = text.index("\n" + first_row, text.index(heading)) + 1
        end = text.index("\n\n", start) + 1
        text = text[:start] + rendered + text[end:]
    frames.write_text(text)
    print(f"wrote {frames}")


if __name__ == "__main__":
    main()
