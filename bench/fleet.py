"""Seeded fleet generators: one workload seed -> `wgiot-scenario v1` text.

Every input the simulator sees is written here as scenario text and goes
through `wgiot.scenario.parse_scenario`, so parsing is part of set-up.  The
program receives only the generated text; the workload seed never reaches
it except as the simulator seed of each fleet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BACKBONE_DELAY_MS = 5  # map-1 <-> wbrac, both directions


@dataclass(frozen=True)
class Fleet:
    """One generated scenario plus what the benchmark needs to score it."""

    sim_seed: int
    text: str
    starts: dict[str, int]  # device agent id -> scheduled start, virtual ms
    max_time: int


@dataclass(frozen=True)
class Params:
    """Generator parameters of one workload (recorded with every result)."""

    devices: int  # devices per fleet
    fleets: int  # fleets generated from one workload seed
    start_window_ms: int  # starts are uniform over [start_at, start_at + window)
    start_at: int = 0
    map_rotation_at: int | None = None  # MPC rotated at map-1 only: device GUIDs go stale
    delay_ms: tuple[int, int] = (1, 100)  # per-link first-hop delay range, inclusive
    drop: float = 0.0  # first-hop drop probability, both directions
    rotate_every_ms: int = 0  # lossy-churn: MPC broadcast period to map-1 and every device
    replays: int = 0  # lossy-churn: captured AuthRequest frames replayed
    max_time: int = 60_000


WORKLOADS: dict[str, Params] = {
    # In-sync GUIDs: 3 frames and 2 PRF calls per device in the run.
    "honest-fleet": Params(devices=2000, fleets=2, start_window_ms=5_000),
    # Every device runs the update flow; starts overlap on purpose, which
    # exposes the concurrency defect.
    "update-storm": Params(
        devices=300, fleets=24, start_window_ms=20_000, start_at=20, map_rotation_at=10
    ),
    # 30 % first-hop loss, periodic MPC broadcasts, AuthRequest replays.
    "lossy-churn": Params(
        devices=1500,
        fleets=2,
        start_window_ms=5_000,
        drop=0.3,
        rotate_every_ms=1_000,
        replays=100,
    ),
}


def generate(workload: str, seed: int, params: Params | None = None) -> list[Fleet]:
    """The fleets of one workload seed; the same seed gives the same text."""
    params = params or WORKLOADS[workload]
    r = random.Random(f"{workload}/{seed}")
    return [_fleet(r, params) for _ in range(params.fleets)]


def _fleet(r: random.Random, p: Params) -> Fleet:
    n = p.devices
    ids = [f"icd-{i}" for i in range(1, n + 1)]
    starts = {a: p.start_at + r.randrange(p.start_window_ms) for a in ids}
    lo, hi = p.delay_ms
    drop = f" drop={p.drop}" if p.drop else ""

    lines = ["wgiot-scenario v1", "[options]", f"max_time = {p.max_time}"]
    if p.map_rotation_at is not None or p.rotate_every_ms:
        lines.append("mpc_period = 1")
    lines.append("[registry]")
    for icd_in in r.sample(range(1, 2**63), n):
        lines.append(
            f"{icd_in} {r.getrandbits(64)} {r.randbytes(32).hex()} "
            f"{r.randbytes(16).hex()} {r.randbytes(16).hex()} 0"
        )
    lines.append("[links]")
    lines.append(f"map-1 wbrac delay={BACKBONE_DELAY_MS}")
    lines.append(f"wbrac map-1 delay={BACKBONE_DELAY_MS}")
    for a in ids:
        lines.append(f"{a} map-1 delay={r.randint(lo, hi)}{drop}")
        lines.append(f"map-1 {a} delay={r.randint(lo, hi)}{drop}")
    lines.append("[schedule]")
    if p.map_rotation_at is not None:
        lines.append(f"rotate at {p.map_rotation_at} to map-1")
    lines += [f"start {a} at {starts[a]}" for a in ids]
    if p.rotate_every_ms:
        everyone = ",".join(["map-1", *ids])
        end = p.start_at + p.start_window_ms + 2 * p.rotate_every_ms
        for at in range(p.rotate_every_ms, end, p.rotate_every_ms):
            lines.append(f"rotate at {at} to {everyone}")
    if p.replays:
        # Replays land after the start window, when every device's first
        # AuthRequest has been captured, so no replay index is out of range.
        lines += ["[adversary]", "capture AuthRequest"]
        first = p.start_at + p.start_window_ms + 500
        for _ in range(p.replays):
            lines.append(f"replay {r.randrange(n)} at {first + r.randrange(p.start_window_ms)}")
    return Fleet(r.randrange(2**32), "\n".join(lines) + "\n", starts, p.max_time)
