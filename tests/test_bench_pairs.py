"""The alternating pair runner of `scripts/bench_pairs.py`, run small with
both sides at this checkout, writes the record that the committed
BENCH_24.json, BENCH_25.json and BENCH_27.json hold for their parent and
change."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"

RECORD_KEYS = {"workload", "seed", "pairs", "seconds", "env", "correct", "attempted", "failed", "metrics"}
SIDES = {"parent", "change"}


def _check_record(record: dict, workload: str, seed: int, pairs: int) -> None:
    assert set(record) == RECORD_KEYS
    assert (record["workload"], record["seed"], record["pairs"]) == (workload, seed, pairs)
    for side in SIDES:
        env = record["env"][side]
        assert {"git_revision", "source_sha256", "python", "cpu"} <= set(env)
        assert (env["workload"], env["seed"]) == (workload, seed)
    assert set(record["correct"]) == set(record["attempted"]) == set(record["failed"]) == SIDES
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(record["metrics"]) == [metric["name"] for metric in declared]
    for metric in record["metrics"].values():
        assert set(metric) == {"unit", "better", "wins"} | SIDES
        assert 0 <= metric["wins"] <= pairs
        for side in SIDES:
            spread = metric[side]
            assert len(spread["runs"]) == pairs
            assert spread["q1"] <= spread["median"] <= spread["q3"]


def test_one_pair_at_one_checkout_writes_every_key(tmp_path):
    out = tmp_path / "pairs.json"
    out.write_text('{"workload": "update-storm"}\n')  # kept beside the pairs
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(ROOT),
         "--workload", "update-storm", "--pairs", "1", "--seconds", "0.5", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert doc["workload"] == "update-storm" and list(doc["pairs"]) == ["update-storm seed 1"]
    record = doc["pairs"]["update-storm seed 1"]
    _check_record(record, "update-storm", 1, 1)
    assert record["correct"] == {"parent": True, "change": True}
    assert record["env"]["parent"] == record["env"]["change"]


def test_committed_record_holds_the_claimed_and_the_other_workloads():
    for path in ("BENCH_24.json", "BENCH_25.json"):
        doc = json.loads((ROOT / path).read_text())
        assert set(doc["pairs"]) == {
            "honest-fleet seed 1",
            "honest-fleet seed 7",
            "update-storm seed 1",
            "lossy-churn seed 1",
        }, path
        for key, record in doc["pairs"].items():
            workload, _, seed = key.split()
            pairs = 10 if workload == "honest-fleet" else 3
            _check_record(record, workload, int(seed), pairs)
            assert record["seconds"] == 30
            assert record["correct"] == {"parent": True, "change": True}
            assert record["failed"] == {"parent": 0, "change": 0}
            env = record["env"]
            assert env["parent"]["git_revision"] != env["change"]["git_revision"]


def test_committed_single_check_record_holds_two_seeds_of_the_claimed_workload():
    doc = json.loads((ROOT / "BENCH_27.json").read_text())
    assert set(doc["pairs"]) == {
        "lossy-churn seed 1",
        "lossy-churn seed 7",
        "honest-fleet seed 1",
        "update-storm seed 1",
    }
    for key, record in doc["pairs"].items():
        workload, _, seed = key.split()
        _check_record(record, workload, int(seed), 10 if workload == "lossy-churn" else 3)
        assert record["seconds"] == 30
        assert record["failed"] == {"parent": 0, "change": 0}
        env = record["env"]
        assert env["parent"]["git_revision"] != env["change"]["git_revision"]
