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
    # identical values gain nothing; three pairs are too few to show a gain
    assert verdicts["honest-fleet seed 1", "auth_ok_ratio"] == "within bound"
    assert verdicts["lossy-churn seed 1", "run_s"] == "within bound"
    assert "regression" not in verdicts.values()


def test_a_change_worse_than_its_bound_exits_1(tmp_path):
    doc = json.loads((ROOT / "BENCH_24.json").read_text())
    record = copy.deepcopy(doc["pairs"]["update-storm seed 1"])
    run_s = record["metrics"]["run_s"]
    run_s["change"] = {key: 1.3 * value for key, value in run_s["parent"].items() if key != "runs"}
    run_s["wins"] = 0
    out = tmp_path / "worse.json"
    out.write_text(json.dumps({"pairs": {"update-storm seed 1": record}}))
    done = _compare(out)
    assert done.returncode == 1, done.stderr
    verdicts = _verdicts(done.stdout)
    assert verdicts["update-storm seed 1", "run_s"] == "regression"
    assert [key for key, verdict in verdicts.items() if verdict == "regression"] == [
        ("update-storm seed 1", "run_s")
    ]


def test_a_file_without_pairs_is_an_error():
    done = _compare(ROOT / "BENCH_23.json")
    assert done.returncode == 2
    assert done.stderr == f"error: {ROOT / 'BENCH_23.json'} holds no pairs\n"
