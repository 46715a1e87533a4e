"""The scale sweep of `scripts/scale_sweep.py`, run small, writes the record
that the committed BENCH_17.json holds for each measured commit."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "scale_sweep.py"

RUN_KEYS = {"environment", "repeats", "sizes"}
SIZE_KEYS = {
    "devices",
    "start_window_ms",
    "max_time",
    "trace_lines",
    "authenticated",
    "setup_s",
    "run_s",
    "host_s",
    "us_per_device",
    "us_per_trace_line",
    "peak_bytes_per_device",
}


def _check_run(run: dict, sizes: list[int]) -> None:
    assert set(run) == RUN_KEYS
    assert {"git_revision", "python", "cpu", "source_sha256"} <= set(run["environment"])
    assert [row["devices"] for row in run["sizes"]] == sizes
    for row in run["sizes"]:
        assert set(row) == SIZE_KEYS
        assert row["us_per_device"] > 0 and row["peak_bytes_per_device"] > 0


def test_small_sweep_writes_every_key(tmp_path):
    out = tmp_path / "scale.json"
    for label in ("a", "b"):
        done = subprocess.run(
            [sys.executable, str(SCRIPT), "--sizes", "1,100", "--repeats", "1",
             "--label", label, "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert doc["workload"] == "update-storm" and set(doc["runs"]) == {"a", "b"}
    for run in doc["runs"].values():
        _check_run(run, [1, 100])
        assert [row["authenticated"] for row in run["sizes"]] == [1, 100]


def test_committed_record_has_the_parent_and_the_change():
    doc = json.loads((ROOT / "BENCH_17.json").read_text())
    assert set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        _check_run(run, [1, 100, 300, 1_000, 3_000, 6_000])
