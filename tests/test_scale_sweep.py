"""The scale sweeps that the committed BENCH_17.json to BENCH_20.json,
BENCH_22.json to BENCH_25.json, BENCH_27.json and BENCH_29.json hold under
`runs`, for each measured commit: the record of the sweep script that sized
pairs (`scripts/bench_pairs.py --sizes`) replaced."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
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
    "setup_us_per_device_median",
    "setup_us_per_device_q1",
    "setup_us_per_device_q3",
    "peak_bytes_per_device",
}
# recorded since the sweep kept the spread of its repeats
QUARTILE_KEYS = {"us_per_trace_line_median", "us_per_trace_line_q1", "us_per_trace_line_q3"}
# recorded since the sweep kept the spread of its set-up times too
SETUP_QUARTILE_KEYS = {
    "setup_us_per_device_median",
    "setup_us_per_device_q1",
    "setup_us_per_device_q3",
}


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
        if SETUP_QUARTILE_KEYS <= size_keys:
            assert 0 < row["setup_us_per_device_q1"] <= row["setup_us_per_device_median"]
            assert row["setup_us_per_device_median"] <= row["setup_us_per_device_q3"]


def test_committed_record_has_the_parent_and_the_change():
    doc = json.loads((ROOT / "BENCH_17.json").read_text())
    assert set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        # recorded before the sweep counted broadcast lines
        _check_run(
            run, ALL_SIZES, SIZE_KEYS - QUARTILE_KEYS - SETUP_QUARTILE_KEYS - {"broadcast_lines"}
        )


def test_committed_per_frame_record_has_the_parent_and_the_change():
    doc = json.loads((ROOT / "BENCH_18.json").read_text())
    assert doc["workload"] == "update-storm" and set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        _check_run(run, ALL_SIZES, SIZE_KEYS - QUARTILE_KEYS - SETUP_QUARTILE_KEYS)


def test_committed_delivery_record_has_the_parent_and_the_change():
    doc = json.loads((ROOT / "BENCH_19.json").read_text())
    assert doc["workload"] == "lossy-churn" and set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        assert run["repeats"] == 15
        _check_run(run, ALL_SIZES, SIZE_KEYS - SETUP_QUARTILE_KEYS)


# BENCH_20: the one-pass parser; BENCH_22: devices built from the registry row's bytes;
# BENCH_23: the RMC held as its 16 bytes; BENCH_24: frozen values built through `value`;
# BENCH_25: each frame copy queued as a list
@pytest.mark.parametrize(
    "record", ["BENCH_20.json", "BENCH_22.json", "BENCH_23.json", "BENCH_24.json", "BENCH_25.json"]
)
def test_committed_set_up_record_has_the_parent_and_the_change(record):
    doc = json.loads((ROOT / record).read_text())
    assert doc["workload"] == "honest-fleet" and set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        assert run["repeats"] == 15
        _check_run(run, ALL_SIZES)
        assert all(row["authenticated"] == row["devices"] for row in run["sizes"])


def test_committed_alternating_record_has_the_parent_and_the_change():
    doc = json.loads((ROOT / "BENCH_27.json").read_text())
    assert doc["workload"] == "lossy-churn" and set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        assert run["repeats"] == 15
        _check_run(run, [300, 1_500, 6_000])


def test_committed_burst_record_has_the_parent_and_the_change():
    doc = json.loads((ROOT / "BENCH_29.json").read_text())
    assert doc["workload"] == "lossy-churn" and set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        assert run["repeats"] == 15
        _check_run(run, [300, 1_500, 6_000])
