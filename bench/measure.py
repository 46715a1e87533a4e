"""Measurement core: run generated fleets through the public library path,
check the outputs, and turn timings and outcomes into named metrics.

The path is `scenario.parse_scenario` -> `simnet.Simulator` -> `Simulator.run`,
looked up through the modules at call time so that the traced pass sees the
span wrappers of `spans.Tracer`.  End-to-end metrics come from untraced runs
only; the traced pass runs after them with the originals put back at its end.

End-to-end host times are calibrated: a shared host's speed drifts by a
quarter over tens of seconds, so each timed fleet run sits between two runs of
a fixed pure-Python reference loop, and its times are scaled by
`REF_S / reference time` (see `reference_s`).  Program changes move the
calibrated times; the host's drift, which slows the reference as much, does
not.  The raw host times are printed beside them.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from wgiot import scenario, simnet

import fleet as fleets_mod
from spans import SPANS, Tracer

# Percentiles reported beside the median, highest first; one is reported
# only when at least ten samples lie beyond it.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
AGENT_HANDLE_SPANS = ("icd.handle", "access_point.handle", "wbrac.handle")
FRAME_KINDS = ("delivered", "dropped", "sunk", "undecodable", "duplicate", "replayed")
NON_FRAME_TAGS = {"tick", "rotate", "replay"}  # trace lines that are not deliveries
# Calibrated times are quoted at a host speed where the reference loop takes
# REF_S; that is about its time on a 2-vCPU Xeon VM under Python 3.11, so
# calibrated seconds read close to that host's seconds.
REF_S = 0.05


@dataclass
class Outcome:
    """What one fleet run produced, scored against the WBRAC registry."""

    digest: str
    devices: int
    authenticated: int
    in_sync: int
    failed: int  # not Authenticated, or SD differs from the WBRAC's
    latencies_ms: list[int]  # virtual ms, start -> first Authenticated
    frames: dict[str, int]
    monotonic: bool


@dataclass
class Timings:
    """Samples of the timed passes; see `Bench.timed`."""

    setup_s: list[float] = field(default_factory=list)  # calibrated, per fleet run
    run_s: list[float] = field(default_factory=list)  # calibrated, per fleet run
    auth_per_s: list[float] = field(default_factory=list)  # calibrated, per pass
    raw_setup_s: list[float] = field(default_factory=list)  # host s, per fleet run
    raw_run_s: list[float] = field(default_factory=list)  # host s, per fleet run
    reference_s: list[float] = field(default_factory=list)  # per reference run


@dataclass
class Result:
    workload: str
    seed: int
    correct: bool = True
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0  # fleet runs made
    failed: int = 0  # fleet runs that failed a correctness check
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    tails: dict[str, tuple[int, float]] = field(default_factory=dict)
    outcomes: list[Outcome] = field(default_factory=list)
    uncalibrated: dict[str, float] = field(default_factory=dict)  # raw host-time medians, s

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and ok
        self.correct = self.correct and ok


def run_fleet(f: fleets_mod.Fleet):
    """Set up and run one fleet; return (sim, trace, setup_s, run_s)."""
    gc.collect()
    t0 = time.perf_counter()
    sim = simnet.Simulator(scenario.parse_scenario(f.text), f.sim_seed)
    t1 = time.perf_counter()
    trace = sim.run()
    t2 = time.perf_counter()
    return sim, trace, t1 - t0, t2 - t1


def reference_s() -> float:
    """Host time of a fixed loop of the simulator's kinds of work: dict and
    string updates, heap pushes and pops, small hashes.  It calls no program
    code, so only the host's speed moves it."""
    gc.collect()
    t0 = time.perf_counter()
    heap, counts, acc = [], {}, 0
    for i in range(20_000):
        key = "k%d" % (i * 7919 % 10007)
        counts[key] = counts.get(key, 0) + i
        heapq.heappush(heap, (i * 31 % 997, key))
        if i % 3 == 0:
            acc ^= hashlib.sha256(key.encode()).digest()[0]
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def digest(trace) -> str:
    return hashlib.sha256(trace.serialize().encode()).hexdigest()


def frame_kind(entry) -> str | None:
    if entry.tag == "?":
        return "undecodable"
    if entry.tag in NON_FRAME_TAGS:
        return None
    words = entry.note.split()
    if words and words[0] == "dropped":
        return "dropped"
    if words and words[0] == "sink":
        return "sunk"
    return "delivered"


def score(f: fleets_mod.Fleet, sim, trace) -> Outcome:
    first_auth: dict[str, int] = {}
    frames = dict.fromkeys(FRAME_KINDS, 0)
    monotonic = True
    last = 0
    for e in trace.entries:
        monotonic = monotonic and e.time >= last
        last = e.time
        kind = frame_kind(e)
        if kind is None:
            continue
        frames[kind] += 1
        words = e.note.split()
        for marker in ("duplicate", "replayed"):
            if marker in words:
                frames[marker] += 1
        if e.receiver not in first_auth and e.note.endswith("-> Authenticated"):
            first_auth[e.receiver] = e.time
    # A device that never authenticates counts as waiting until max_time.
    latencies = [first_auth.get(a, f.max_time) - start for a, start in f.starts.items()]
    authenticated = in_sync = failed = 0
    for i, sub in enumerate(sim.scenario.subscribers, start=1):
        agent = sim.icds[f"icd-{i}"]
        auth = agent.state_name == "Authenticated"
        sync = agent.cfg.sd == sim.wbrac.registry[sub.icd_in].sd
        authenticated += auth
        in_sync += sync
        failed += not (auth and sync)
    return Outcome(
        digest(trace), len(f.starts), authenticated, in_sync, failed, latencies, frames, monotonic
    )


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


def tail(values) -> tuple[int, float] | None:
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, percentile(values, p)
    return None


def golden_ok(scn: Path, golden: Path) -> bool:
    """The scenario at seed 0 reproduces the golden trace byte for byte."""
    sc = scenario.parse_scenario(scn.read_text(), base_dir=scn.parent)
    return simnet.Simulator(sc, 0).run().serialize().encode() == golden.read_bytes()


def honest_golden_ok(root: Path) -> bool:
    scenarios = root / "scenarios"
    return golden_ok(scenarios / "honest.scn", scenarios / "golden" / "honest.trace")


class Bench:
    """One benchmark invocation: a workload, a seed and a time budget."""

    def __init__(self, workload: str, seed: int, params: fleets_mod.Params | None = None):
        self.fleets = fleets_mod.generate(workload, seed, params)
        self.result = Result(workload, seed)
        self.peak_mem_mb = 0.0

    def warm_up(self) -> None:
        """One untimed pass: fills caches and records each fleet's outcome.

        The first fleet runs under tracemalloc, which gives `peak_mem_mb`
        (set-up and run) without slowing a timed run."""
        r = self.result
        for i, f in enumerate(self.fleets):
            sim, trace = self._run_measuring_memory(f) if i == 0 else run_fleet(f)[:2]
            out = score(f, sim, trace)
            r.outcomes.append(out)
            r.attempted += 1
            r.check("time_monotonic", out.monotonic)
            r.failed += not out.monotonic

    def _run_measuring_memory(self, f: fleets_mod.Fleet):
        tracemalloc.start()
        try:
            sim, trace, _, _ = run_fleet(f)
            self.peak_mem_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        return sim, trace

    def timed(self, seconds: float) -> Timings:
        """Passes over the fleets until `seconds` have gone by, at least one.

        A reference run comes before the first fleet run and after each one;
        a fleet run's times are calibrated by the mean of its two neighbours.
        `auth_per_s` is the devices authenticated per calibrated second of
        set-up + run over each whole pass."""
        t = Timings()
        authenticated = sum(o.authenticated for o in self.result.outcomes)
        deadline = time.perf_counter() + seconds
        t.reference_s.append(reference_s())
        while True:
            busy = 0.0
            for f, out in zip(self.fleets, self.result.outcomes):
                if t.auth_per_s and time.perf_counter() >= deadline:
                    return t
                _, trace, setup, run = run_fleet(f)
                t.reference_s.append(reference_s())
                scale = REF_S * 2 / (t.reference_s[-2] + t.reference_s[-1])
                self._repeat_check(out, trace)
                t.raw_setup_s.append(setup)
                t.raw_run_s.append(run)
                t.setup_s.append(setup * scale)
                t.run_s.append(run * scale)
                busy += (setup + run) * scale
            t.auth_per_s.append(authenticated / busy)

    def _repeat_check(self, out: Outcome, trace) -> None:
        same = digest(trace) == out.digest
        self.result.attempted += 1
        self.result.failed += not same
        self.result.check("repeat_digest", same)

    # -- the two modes --

    def end_to_end(self, seconds: float, root: Path) -> Result:
        r = self.result
        r.check("golden_trace", honest_golden_ok(root))
        self.warm_up()
        t = self.timed(seconds)
        self._timing(r, "setup_s", t.setup_s, "s")
        self._timing(r, "run_s", t.run_s, "s")
        self._timing(r, "auth_per_s", t.auth_per_s, "1/s")
        r.uncalibrated = {
            "setup_s": statistics.median(t.raw_setup_s),
            "run_s": statistics.median(t.raw_run_s),
            "reference_s": statistics.median(t.reference_s),
        }
        r.metrics["peak_mem_mb"] = (self.peak_mem_mb, "MB")
        r.samples["peak_mem_mb"] = 1

        devices = sum(o.devices for o in r.outcomes)
        auth_ok = sum(o.authenticated for o in r.outcomes) / devices
        sd_sync = sum(o.in_sync for o in r.outcomes) / devices
        latencies = [ms for o in r.outcomes for ms in o.latencies_ms]
        r.metrics["auth_ok_ratio"] = (auth_ok, "ratio")
        r.metrics["sd_sync_ratio"] = (sd_sync, "ratio")
        r.metrics["sim_auth_ms_p50"] = (percentile(latencies, 50), "ms")
        r.metrics["sim_auth_ms_p99"] = (percentile(latencies, 99), "ms")
        for name in ("auth_ok_ratio", "sd_sync_ratio", "sim_auth_ms_p50", "sim_auth_ms_p99"):
            r.samples[name] = devices
        if r.workload == "honest-fleet":
            r.check("honest_all_authenticated_in_sync", auth_ok == 1.0 and sd_sync == 1.0)
        return r

    def per_layer(self, seconds: float, root: Path) -> Result:
        """Untraced runs for half the budget, then traced runs for the rest."""
        r = self.result
        r.check("golden_trace", honest_golden_ok(root))
        self.warm_up()
        untraced_run_s = self.timed(seconds / 2).raw_run_s

        tracer = Tracer()
        traced_run_s, wall_ns = [], 0
        deadline = time.perf_counter() + seconds / 2
        with tracer.installed():
            while not traced_run_s or time.perf_counter() < deadline:
                for f, out in zip(self.fleets, r.outcomes):
                    _, trace, setup, run = run_fleet(f)
                    t0 = time.perf_counter()
                    self._repeat_check(out, trace)  # serializes: the simnet.serialize span
                    wall_ns += (setup + run + time.perf_counter() - t0) * 1e9
                    traced_run_s.append(run)
        runs = len(traced_run_s)

        m = r.metrics
        for name in SPANS:
            m[f"{name}.calls"] = (tracer.calls[name] / runs, "count")
            m[f"{name}.self_ms"] = (tracer.self_ns[name] / runs / 1e6, "ms")
        events = tracer.calls["simnet.step"] / runs
        m["simnet.us_per_event"] = (statistics.fmean(untraced_run_s) * 1e6 / events, "us")
        m["simnet.queue_depth_max"] = (tracer.queue_depth_max, "count")
        for kind in FRAME_KINDS:
            per_fleet = statistics.fmean(o.frames[kind] for o in r.outcomes)
            m[f"simnet.frames.{kind}"] = (per_fleet, "count")
        m["wire.bytes_encoded"] = (tracer.bytes_encoded / runs, "bytes")
        handled = sum(tracer.calls[s] for s in AGENT_HANDLE_SPANS)
        m["wire.decode.useful_ratio"] = (handled / max(1, tracer.calls["wire.decode"]), "ratio")
        begun = tracer.updates_begun
        m["wbrac.update.commit_ratio"] = (tracer.updates_confirmed / max(1, begun), "ratio")
        m["trace_overhead_ratio"] = (
            statistics.median(traced_run_s) / statistics.median(untraced_run_s),
            "ratio",
        )
        m["traced.wall_ms"] = (wall_ns / runs / 1e6, "ms")
        unaccounted = wall_ns - sum(tracer.self_ns.values())
        m["traced.unaccounted_ms"] = (unaccounted / runs / 1e6, "ms")
        r.samples.update(traced_runs=runs, untraced_runs=len(untraced_run_s))
        return r

    @staticmethod
    def _timing(r: Result, name: str, values: list[float], unit: str) -> None:
        r.metrics[name] = (statistics.median(values), unit)
        r.samples[name] = len(values)
        t = tail(values)
        if t is not None:
            r.tails[name] = t
