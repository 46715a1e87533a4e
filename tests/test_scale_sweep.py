"""The scale sweep of `scripts/scale_sweep.py`, run small on each workload
it sweeps, in one checkout or alternating two, writes the record that the
committed BENCH_17.json to BENCH_20.json, BENCH_22.json to BENCH_25.json
and BENCH_27.json hold for each measured commit."""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "scale_sweep.py"
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "bench")]

import fleet  # noqa: E402
import scale_sweep  # noqa: E402
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


def _sweep(out: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "1,100", "--repeats", "3", "--out", str(out), *args],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", ["update-storm", "lossy-churn", "honest-fleet"])
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
        elif workload == "honest-fleet":
            # in-sync GUIDs: no broadcast, and three frames per device
            assert [row["authenticated"] for row in rows] == [1, 100]
            assert [row["broadcast_lines"] for row in rows] == [0, 0]
            assert [row["trace_lines"] for row in rows] == [3, 300]
            assert [row["max_time"] for row in rows] == [55_002, 55_250]
        else:
            # each MPC broadcast reaches map-1 and every device
            assert all(row["broadcast_lines"] % (row["devices"] + 1) == 0 for row in rows)
            assert all(0 < row["broadcast_lines"] < row["trace_lines"] for row in rows)


def test_an_alternating_sweep_writes_every_key_of_both_labels(tmp_path):
    out = tmp_path / "scale.json"
    done = _sweep(out, "--parent", str(ROOT), "--change", str(ROOT), "--repeats", "2")
    assert done.returncode == 0, done.stderr
    # each repeat of each side runs on its own, parent and change taking turns first
    order = [line.split(": ")[1] for line in done.stdout.splitlines() if "repeat" in line]
    assert order == ["parent", "change", "change", "parent"]
    doc = json.loads(out.read_text())
    assert doc["workload"] == "update-storm" and set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        assert run["repeats"] == 2
        _check_run(run, [1, 100])
        assert [row["authenticated"] for row in run["sizes"]] == [1, 100]


def test_parent_and_change_go_together(tmp_path):
    done = _sweep(tmp_path / "scale.json", "--parent", str(ROOT))
    assert done.returncode == 2 and "--parent and --change go together" in done.stderr


def test_a_sweep_of_another_workload_is_not_mixed_in(tmp_path):
    out = tmp_path / "scale.json"
    assert _sweep(out, "--sizes", "1").returncode == 0
    done = _sweep(out, "--sizes", "1", "--workload", "lossy-churn")
    assert done.returncode == 1
    assert done.stderr == f"error: {out} holds update-storm runs, not lossy-churn\n"


def test_a_sweep_is_added_beside_recorded_pairs(tmp_path):
    out = tmp_path / "record.json"
    out.write_text('{"pairs": {"update-storm seed 1": {}}}\n')
    done = _sweep(out, "--sizes", "1")
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert doc["pairs"] == {"update-storm seed 1": {}}
    assert doc["workload"] == "update-storm" and doc["seed"] == 1
    _check_run(doc["runs"]["change"], [1])


class _FakeMeasure:
    """`bench/measure.py` as the sweep uses it, with host times and
    reference loops set by the test: three repeats of one fleet of one
    device that traces four lines."""

    REF_S = 1.0

    def __init__(self, host_times, references):
        self._host_times = iter(host_times)
        self._references = iter(references)

    def reference_s(self):
        return next(self._references)

    def run_fleet(self, _fleet):
        setup_s, run_s = next(self._host_times, (1.0, 1.0))  # the peak-memory run comes last
        sim = SimpleNamespace(icds={"icd-1": SimpleNamespace(state_name="Authenticated")})
        trace = SimpleNamespace(senders=["icd-1"] * 4, tags=["AuthRequest"] * 4, notes=[""] * 4)
        return sim, trace, setup_s, run_s


def test_the_row_holds_the_median_run_not_one_a_slow_reference_loop_shrank():
    # the third run is the fastest on the host but lies beside a reference
    # loop ten times slower, which scales it to 2 / 11 of its time
    measure = _FakeMeasure([(1.0, 2.0), (1.1, 2.2), (0.9, 1.8)], [1.0, 1.0, 1.0, 10.0])
    [row] = scale_sweep.sweep(fleet, measure, "honest-fleet", [1], 3)
    assert (row["setup_s"], row["run_s"], row["host_s"]) == (1.0, 2.0, 3.0)
    assert row["us_per_device"] == 3e6
    assert row["us_per_trace_line"] == 0.5e6
    assert row["setup_us_per_device_median"] == 1e6


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
