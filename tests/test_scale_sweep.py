"""The scale sweep of `scripts/scale_sweep.py`, run small on each workload
it sweeps, writes the record that the committed BENCH_17.json,
BENCH_18.json and BENCH_19.json hold for each measured commit."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "scale_sweep.py"
ALL_SIZES = [1, 100, 300, 1_000, 3_000, 6_000]

RUN_KEYS = {"environment", "repeats", "sizes"}
SIZE_KEYS = {
    "devices",
    "start_window_ms",
    "max_time",
    "trace_lines",
    "broadcast_lines",
    "authenticated",
    "setup_s",
    "run_s",
    "host_s",
    "us_per_device",
    "us_per_trace_line",
    "us_per_trace_line_median",
    "us_per_trace_line_q1",
    "us_per_trace_line_q3",
    "peak_bytes_per_device",
}
# recorded since the sweep kept the spread of its repeats
QUARTILE_KEYS = {"us_per_trace_line_median", "us_per_trace_line_q1", "us_per_trace_line_q3"}


def _check_run(run: dict, sizes: list[int], size_keys: set[str] = SIZE_KEYS) -> None:
    assert set(run) == RUN_KEYS
    assert {"git_revision", "python", "cpu", "source_sha256"} <= set(run["environment"])
    assert [row["devices"] for row in run["sizes"]] == sizes
    for row in run["sizes"]:
        assert set(row) == size_keys
        assert row["us_per_device"] > 0 and row["peak_bytes_per_device"] > 0
        if QUARTILE_KEYS <= size_keys:
            assert 0 < row["us_per_trace_line_q1"] <= row["us_per_trace_line_median"]
            assert row["us_per_trace_line_median"] <= row["us_per_trace_line_q3"]


def _sweep(out: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "1,100", "--repeats", "3", "--out", str(out), *args],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", ["update-storm", "lossy-churn"])
def test_small_sweep_writes_every_key(tmp_path, workload):
    out = tmp_path / "scale.json"
    for label in ("a", "b"):
        done = _sweep(out, "--workload", workload, "--label", label)
        assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert doc["workload"] == workload and set(doc["runs"]) == {"a", "b"}
    for run in doc["runs"].values():
        _check_run(run, [1, 100])
        rows = run["sizes"]
        if workload == "update-storm":
            assert [row["authenticated"] for row in rows] == [1, 100]
            assert [row["broadcast_lines"] for row in rows] == [1, 1]  # the one rotation, to map-1
        else:
            # each MPC broadcast reaches map-1 and every device
            assert all(row["broadcast_lines"] % (row["devices"] + 1) == 0 for row in rows)
            assert all(0 < row["broadcast_lines"] < row["trace_lines"] for row in rows)


def test_a_sweep_of_another_workload_is_not_mixed_in(tmp_path):
    out = tmp_path / "scale.json"
    assert _sweep(out, "--sizes", "1").returncode == 0
    done = _sweep(out, "--sizes", "1", "--workload", "lossy-churn")
    assert done.returncode == 1
    assert done.stderr == f"error: {out} holds update-storm runs, not lossy-churn\n"


def test_committed_record_has_the_parent_and_the_change():
    doc = json.loads((ROOT / "BENCH_17.json").read_text())
    assert set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        # recorded before the sweep counted broadcast lines
        _check_run(run, ALL_SIZES, SIZE_KEYS - QUARTILE_KEYS - {"broadcast_lines"})


def test_committed_per_frame_record_has_the_parent_and_the_change():
    doc = json.loads((ROOT / "BENCH_18.json").read_text())
    assert doc["workload"] == "update-storm" and set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        _check_run(run, ALL_SIZES, SIZE_KEYS - QUARTILE_KEYS)


def test_committed_delivery_record_has_the_parent_and_the_change():
    doc = json.loads((ROOT / "BENCH_19.json").read_text())
    assert doc["workload"] == "lossy-churn" and set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        assert run["repeats"] == 15
        _check_run(run, ALL_SIZES)
