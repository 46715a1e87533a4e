"""`scripts/bench_compare.py` reads the pairs that `scripts/bench_pairs.py`
records and gives each end-to-end metric a verdict against its bound."""

import copy
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_compare.py"


def _compare(*files: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, files)], capture_output=True, text=True, timeout=60
    )


def _verdicts(stdout: str) -> dict[tuple[str, str], str]:
    """(record, metric) -> verdict, read from the printed lines."""
    verdicts, record = {}, None
    for line in stdout.splitlines():
        if not line.startswith("  "):
            record = line.split(": ", 1)[1].rsplit(", ", 1)[0]
        else:
            metric = line.split()[0]
            verdicts[record, metric] = line.rsplit("  ", 1)[1]
    return verdicts


def test_the_committed_set_up_gain_reads_as_a_gain():
    done = _compare(ROOT / "BENCH_24.json")
    assert done.returncode == 0, done.stderr
    verdicts = _verdicts(done.stdout)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert len(verdicts) == 4 * len(declared)
    assert verdicts["honest-fleet seed 1", "setup_s"] == "gain"
    # identical values are exact; three pairs are too few to show a gain
    assert verdicts["honest-fleet seed 1", "auth_ok_ratio"] == "exact"
    assert verdicts["lossy-churn seed 1", "run_s"] == "within bound"
    assert "regression" not in verdicts.values()


def test_the_committed_single_check_gain_reads_as_a_gain_at_both_seeds():
    done = _compare(ROOT / "BENCH_27.json")
    assert done.returncode == 0, done.stderr
    verdicts = _verdicts(done.stdout)
    for seed in (1, 7):
        assert verdicts[f"lossy-churn seed {seed}", "setup_s"] == "gain"
        # one target tuple where the parent held six: the same bytes every run
        assert verdicts[f"lossy-churn seed {seed}", "peak_mem_mb"] == "exact"
    assert "regression" not in verdicts.values()


def test_a_zero_spread_change_is_exact_not_a_gain():
    """Every run of each side gives one peak_mem_mb, and the change's is
    0.002 % lower, in ten pairs of ten won: exact, since a parent with no
    spread lets any gap at all pass for a gain."""
    done = _compare(ROOT / "BENCH_24.json")
    assert done.returncode == 0, done.stderr
    verdicts = _verdicts(done.stdout)
    doc = json.loads((ROOT / "BENCH_24.json").read_text())
    for key, record in doc["pairs"].items():
        peak = record["metrics"]["peak_mem_mb"]
        assert len(set(peak["parent"]["runs"])) == len(set(peak["change"]["runs"])) == 1
        assert 0 < peak["parent"]["median"] - peak["change"]["median"] < 1e-4
        assert verdicts[key, "peak_mem_mb"] == "exact"
    assert doc["pairs"]["honest-fleet seed 1"]["metrics"]["peak_mem_mb"]["wins"] == 10


def test_a_change_worse_than_its_bound_exits_1(tmp_path):
    doc = json.loads((ROOT / "BENCH_24.json").read_text())
    record = copy.deepcopy(doc["pairs"]["update-storm seed 1"])
    run_s = record["metrics"]["run_s"]
    run_s["change"] = {key: 1.3 * value for key, value in run_s["parent"].items() if key != "runs"}
    run_s["wins"] = 0
    # a metric with no spread is exact only within its bound
    peak = record["metrics"]["peak_mem_mb"]
    worse = 1.2 * peak["parent"]["median"]
    peak["change"] = {"median": worse, "q1": worse, "q3": worse, "runs": [worse] * record["pairs"]}
    out = tmp_path / "worse.json"
    out.write_text(json.dumps({"pairs": {"update-storm seed 1": record}}))
    done = _compare(out)
    assert done.returncode == 1, done.stderr
    verdicts = _verdicts(done.stdout)
    assert [key for key, verdict in verdicts.items() if verdict == "regression"] == [
        ("update-storm seed 1", "run_s"),
        ("update-storm seed 1", "peak_mem_mb"),
    ]


def test_a_file_without_pairs_is_an_error():
    done = _compare(ROOT / "BENCH_23.json")
    assert done.returncode == 2
    assert done.stderr == f"error: {ROOT / 'BENCH_23.json'} holds no pairs\n"
