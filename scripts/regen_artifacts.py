#!/usr/bin/env python3
"""Regenerate committed artifacts: the golden honest-run trace, the PRF
conformance vector files and the layout table in frames.md.  Run from the
repository root."""

from pathlib import Path

from wgiot import crypto, wire
from wgiot.scenario import load_scenario
from wgiot.simnet import sim_run

ROOT = Path(__file__).resolve().parent.parent


def main():
    scenario = load_scenario(ROOT / "scenarios" / "honest.scn")
    trace = sim_run(scenario, seed=0)
    golden = ROOT / "scenarios" / "golden" / "honest.trace"
    golden.parent.mkdir(exist_ok=True)
    golden.write_text(trace.serialize())
    print(f"wrote {golden}")

    for name in ("hmac-sha256", "trunc16"):
        path = ROOT / "vectors" / f"{name}.txt"
        path.write_text(crypto.generate_vectors(crypto.get_backend(name)))
        print(f"wrote {path}")

    # the table runs from its header row to the next blank line
    frames = ROOT / "frames.md"
    text = frames.read_text()
    start = text.index("| Tag ")
    end = text.index("\n\n", start) + 1
    frames.write_text(text[:start] + wire.frame_table() + text[end:])
    print(f"wrote {frames}")


if __name__ == "__main__":
    main()
