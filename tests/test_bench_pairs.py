"""The alternating runner that `scripts/bench_pairs.py` shares with
`scripts/scale_sweep.py` runs the two sides in ABBA order and refuses a
run that failed; the pairs, run small with both sides at this checkout,
write the record that the committed BENCH_24.json, BENCH_25.json and
BENCH_27.json hold for their parent and change."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
sys.path.insert(0, str(ROOT / "scripts"))

import bench_pairs  # noqa: E402

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


def _checkouts(tmp_path: Path) -> dict:
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for checkout in checkouts.values():
        checkout.mkdir()
    return checkouts


def test_the_runner_alternates_the_sides_abba(tmp_path):
    argv = ["-c", "import os; print(os.path.basename(os.getcwd()))"]
    runs = [
        (i, side, done.stdout.strip())
        for i, side, done in bench_pairs.alternate(_checkouts(tmp_path), [argv] * 3)
    ]
    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert runs == [(i // 2, side, side) for i, side in enumerate(order)]


def test_the_runner_raises_on_an_exit_code_it_was_not_told_to_accept(tmp_path):
    argv = ["-c", "import os, sys; sys.exit(3 if os.getcwd().endswith('change') else 0)"]
    runs = bench_pairs.alternate(_checkouts(tmp_path), [argv], accept=(0, 1))
    assert next(runs)[1] == "parent"
    with pytest.raises(RuntimeError, match=r"^the change run in .*change exited 3"):
        next(runs)


def test_a_crashed_bench_run_names_its_side_checkout_and_traceback(tmp_path):
    crashed = tmp_path / "crashed"
    (crashed / "bench").mkdir(parents=True)
    # the environment line, then a crash: exit 1, as a failed check exits
    (crashed / "bench" / "run.py").write_text(
        'import json\nprint(json.dumps({"env": {}}))\nraise ValueError("run broke")\n'
    )
    with pytest.raises(RuntimeError) as raised:
        bench_pairs.pairs({"parent": crashed, "change": ROOT}, "update-storm", 1, 1, 0.5)
    message = str(raised.value)
    assert message.startswith(f"the parent run in {crashed} printed no result: ")
    assert "ValueError: run broke" in message


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
