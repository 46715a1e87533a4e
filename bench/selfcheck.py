#!/usr/bin/env python3
"""Fast self-check of the benchmark at a few devices per fleet.

    python3 bench/selfcheck.py

Covers generator determinism, the manifest (BENCHMARK.json) against the
metric names and units the benchmark prints, and the correctness checks,
including that they catch a wrong golden trace, a repeat whose trace differs
and virtual time that goes backwards.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import unittest

import fleet
import run

run.use_checkout_program()

import measure  # noqa: E402  (needs the checkout's src/ on the path)
import spans  # noqa: E402
from wgiot import scenario, simnet, wire  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny(workload: str) -> fleet.Params:
    return dataclasses.replace(fleet.WORKLOADS[workload], devices=6, fleets=2)


class Generator(unittest.TestCase):
    def test_same_seed_same_text(self):
        for w in fleet.WORKLOADS:
            a, b = fleet.generate(w, 7, tiny(w)), fleet.generate(w, 7, tiny(w))
            self.assertEqual(a, b)
            self.assertNotEqual(a, fleet.generate(w, 8, tiny(w)))
            self.assertNotEqual(a[0].text, a[1].text)

    def test_text_parses_to_the_generated_fleet(self):
        for w in fleet.WORKLOADS:
            for f in fleet.generate(w, 1, tiny(w)):
                sc = scenario.parse_scenario(f.text)
                self.assertEqual(len(sc.subscribers), 6)
                self.assertEqual(sc.max_time, f.max_time)
                starts = {s.agent_id: s.at for s in sc.schedule if isinstance(s, simnet.StartIcd)}
                self.assertEqual(starts, f.starts)


class Manifest(unittest.TestCase):
    def test_file_is_generated(self):
        on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(on_disk, run.manifest())

    def test_contract_limits(self):
        m = run.manifest()
        self.assertEqual(
            set(m), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertTrue(2 <= len(m["workloads"]) <= 8)
        self.assertTrue(1 <= len(m["per_layer"]) <= 128)
        names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in m[k]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in m["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for x in m["end_to_end"] + m["per_layer"]:
            self.assertRegex(x["unit"], UNIT)
            self.assertIn(x["better"], ("higher", "lower"))
        bounds = {x["name"]: x["bound"] for x in m["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Runs(unittest.TestCase):
    def test_end_to_end_metrics_names_units_and_checks(self):
        want = {n: u for n, u, _, _ in run.END_TO_END}
        for w in fleet.WORKLOADS:
            r = measure.Bench(w, 3, tiny(w)).end_to_end(0.01, run.ROOT)
            self.assertTrue(r.correct, r.checks)
            self.assertEqual(r.failed, 0)
            self.assertEqual({n: u for n, (_, u) in r.metrics.items()}, want)
            self.assertTrue(all(v > 0 for v, _ in r.metrics.values()), r.metrics)
            if w == "honest-fleet":
                self.assertTrue(r.checks["honest_all_authenticated_in_sync"])

    def test_per_layer_metrics_and_originals_restored(self):
        before = [getattr(owner, attr) for _, owner, attr in spans.LAYERS]
        r = measure.Bench("lossy-churn", 3, tiny("lossy-churn")).per_layer(0.01, run.ROOT)
        self.assertTrue(r.correct, r.checks)
        want = {n: u for n, u, _ in run.per_layer_metrics()}
        self.assertEqual({n: u for n, (_, u) in r.metrics.items()}, want)
        self.assertEqual(before, [getattr(owner, attr) for _, owner, attr in spans.LAYERS])
        self.assertGreater(r.metrics["wire.decode.calls"][0], 0)
        self.assertGreater(r.metrics["simnet.frames.dropped"][0], 0)


class Checks(unittest.TestCase):
    def test_golden_trace(self):
        scenarios = run.ROOT / "scenarios"
        golden = scenarios / "golden" / "honest.trace"
        self.assertTrue(measure.golden_ok(scenarios / "honest.scn", golden))
        self.assertFalse(measure.golden_ok(scenarios / "update.scn", golden))

    def test_repeat_with_another_trace_fails(self):
        b = measure.Bench("honest-fleet", 3, tiny("honest-fleet"))
        b.warm_up()
        self.assertTrue(b.result.correct)
        other = simnet.Simulator(scenario.parse_scenario(b.fleets[1].text), 0).run()
        b._repeat_check(b.result.outcomes[0], other)
        self.assertFalse(b.result.correct)
        self.assertEqual(b.result.failed, 1)

    def test_time_going_backwards_is_caught(self):
        f = fleet.generate("honest-fleet", 3, tiny("honest-fleet"))[0]
        sim, trace, _, _ = measure.run_fleet(f)
        self.assertTrue(measure.score(f, sim, trace).monotonic)
        trace.add(0, "icd-1", "map-1", wire.tag_name(wire.AuthAccept()), None, "")
        self.assertFalse(measure.score(f, sim, trace).monotonic)


if __name__ == "__main__":
    unittest.main()
