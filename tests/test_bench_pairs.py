"""The alternating runner of `scripts/bench_pairs.py` runs the two sides in
ABBA order and refuses a run that failed; the pairs, run small with both
sides at this checkout, write the record that the committed BENCH_24.json,
BENCH_25.json and BENCH_27.json hold for their parent and change, and sized
pairs write one such record per fleet size, which `scripts/bench_compare.py`
judges as it judges any pairs."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
COMPARE = ROOT / "scripts" / "bench_compare.py"
sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "bench"))

import bench_pairs  # noqa: E402
import fleet  # noqa: E402

RECORD_KEYS = {"workload", "seed", "pairs", "seconds", "env", "correct", "attempted", "failed", "metrics"}
SIZED_KEYS = RECORD_KEYS | {"trace_lines", "broadcast_lines"}
SIDES = {"parent", "change"}


def _check_record(record: dict, workload: str, seed: int, pairs: int, keys=RECORD_KEYS) -> None:
    assert set(record) == keys
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


def _pairs(out: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(ROOT),
         "--pairs", "1", "--seconds", "0.5", "--out", str(out), *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", bench_pairs.workload_names(ROOT))
def test_a_fleet_of_the_workload_size_runs_as_the_workload_does(workload):
    base = fleet.WORKLOADS[workload]
    assert bench_pairs.sized_params(fleet, workload, base.devices) == replace(base, fleets=1)


@pytest.mark.parametrize("workload", ["update-storm", "lossy-churn", "honest-fleet"])
def test_sized_pairs_add_a_record_per_size_beside_the_records_there(tmp_path, workload):
    out = tmp_path / "sized.json"
    unsized = json.loads((ROOT / "BENCH_29.json").read_text())["pairs"]["update-storm seed 1"]
    out.write_text(json.dumps({"pairs": {"update-storm seed 1": unsized}}))
    done = _pairs(out, "--workload", workload, "--sizes", "1,100")
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    keys = [f"{workload} seed 1 N={n}" for n in (1, 100)]
    assert list(doc["pairs"]) == ["update-storm seed 1", *keys]
    assert doc["pairs"]["update-storm seed 1"] == unsized
    records = [doc["pairs"][key] for key in keys]
    for n, record in zip((1, 100), records):
        _check_record(record, workload, 1, 1, SIZED_KEYS)
        assert record["correct"] == {"parent": True, "change": True}
        for side in SIDES:
            params = record["env"][side]["params"]
            assert (params["devices"], params["fleets"]) == (n, 1)
        assert record["trace_lines"]["parent"] == record["trace_lines"]["change"]
        assert record["broadcast_lines"]["parent"] == record["broadcast_lines"]["change"]
    trace_lines = [record["trace_lines"]["change"] for record in records]
    broadcast_lines = [record["broadcast_lines"]["change"] for record in records]
    if workload == "update-storm":
        assert broadcast_lines == [1, 1]  # the one rotation, to map-1
    elif workload == "honest-fleet":
        # in-sync GUIDs: no broadcast, and three frames per device
        assert broadcast_lines == [0, 0]
        assert trace_lines == [3, 300]
        assert [r["env"]["change"]["params"]["max_time"] for r in records] == [55_002, 55_250]
    else:
        # each MPC broadcast reaches map-1 and every device
        assert [b % (n + 1) for b, n in zip(broadcast_lines, (1, 100))] == [0, 0]
        assert all(0 < b < t for b, t in zip(broadcast_lines, trace_lines))
    # judged as any pairs are: a verdict on each size, though one A/A pair is noise
    compared = subprocess.run(
        [sys.executable, str(COMPARE), str(out)], capture_output=True, text=True, timeout=60
    )
    assert compared.returncode in (0, 1), compared.stderr
    for key in keys:
        assert f"sized.json: {key}, 1 pairs\n" in compared.stdout


@pytest.mark.parametrize("sizes", ["0", "x", "1,,2"])
def test_sizes_must_be_positive_integers(tmp_path, sizes):
    done = _pairs(tmp_path / "sized.json", "--workload", "update-storm", "--sizes", sizes)
    assert done.returncode == 2
    assert f"argument --sizes: invalid sizes value: {sizes!r}" in done.stderr
    assert not (tmp_path / "sized.json").exists()


@pytest.mark.parametrize(
    "content, reason",
    [
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ("[1, 2]", "it holds no JSON object"),
        ('{"pairs": [1, 2]}', "its pairs are no JSON object"),
        (None, "Is a directory"),
    ],
)
def test_an_out_file_that_holds_no_record_fails_before_any_run(tmp_path, content, reason):
    out = tmp_path / "record.json"
    if content is None:
        out.mkdir()
    else:
        out.write_text(content)
    done = _pairs(out, "--workload", "update-storm")
    assert done.returncode == 2
    assert f"error: cannot read --out {out}: " in done.stderr and reason in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert content is None or out.read_text() == content


def test_an_unknown_workload_is_a_usage_error_before_any_run(tmp_path, monkeypatch, capsys):
    def run(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(subprocess, "run", run)
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "nope", "--out", str(out)]
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main(argv)
    assert exited.value.code == 2
    known = ", ".join(bench_pairs.workload_names(ROOT))
    assert known == "honest-fleet, update-storm, lossy-churn"
    err = capsys.readouterr().err
    assert f"error: --workload nope is not a workload of --parent {ROOT}; " in err
    assert err.endswith(f"known workloads: {known}\n")
    assert not out.exists()


def _fake_checkout(path: Path, declared: str | None) -> Path:
    """A checkout with a bench/run.py and, unless None, this BENCHMARK.json."""
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text("")
    if declared is not None:
        (path / "BENCHMARK.json").write_text(declared)
    return path


def test_a_workload_the_parent_does_not_declare_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """Each checkout is asked for its own workloads: one that only the
    change declares fails on the parent, before any run."""
    def run(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(subprocess, "run", run)
    declared = json.dumps({"workloads": [{"name": "honest-fleet"}]})
    parent = _fake_checkout(tmp_path / "parent", declared)
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(parent), "--change", str(ROOT), "--workload", "update-storm"]
    argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert f"error: --workload update-storm is not a workload of --parent {parent}; " in err
    assert err.endswith("known workloads: honest-fleet\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "declared, reason",
    [
        (None, "No such file or directory"),
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ('{"end_to_end": []}', "'workloads'"),
    ],
)
def test_a_change_whose_workloads_cannot_be_read_is_a_usage_error(tmp_path, declared, reason):
    change = _fake_checkout(tmp_path / "change", declared)
    out = tmp_path / "pairs.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(change),
         "--workload", "update-storm", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert f"error: --change {change}: cannot read the workloads of BENCHMARK.json: " in done.stderr
    assert reason in done.stderr and "Traceback" not in done.stderr and done.stdout == ""
    assert not out.exists()


def test_each_size_is_written_before_the_next_one_runs(tmp_path, monkeypatch):
    record = json.loads((ROOT / "BENCH_29.json").read_text())["pairs"]["update-storm seed 1"]
    record["trace_lines"] = record["broadcast_lines"] = {"parent": 3, "change": 3}

    def pairs(checkouts, workload, seed, count, seconds, devices):
        if devices == 6_000:
            raise RuntimeError("the parent run crashed")
        return record

    monkeypatch.setattr(bench_pairs, "pairs", pairs)
    out = tmp_path / "sized.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "lossy-churn",
            "--sizes", "300,6000", "--out", str(out)]
    with pytest.raises(RuntimeError, match="the parent run crashed"):
        bench_pairs.main(argv)
    assert json.loads(out.read_text()) == {"pairs": {"lossy-churn seed 1 N=300": record}}


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


def test_committed_sized_record_holds_every_workload_and_three_lossy_churn_sizes():
    doc = json.loads((ROOT / "BENCH_30.json").read_text())
    sizes = [300, 1_500, 6_000]
    assert list(doc) == ["pairs"]
    assert list(doc["pairs"]) == [
        "honest-fleet seed 1",
        "update-storm seed 1",
        "lossy-churn seed 1",
        *(f"lossy-churn seed 1 N={n}" for n in sizes),
    ]
    for key, record in doc["pairs"].items():
        workload = key.split()[0]
        sized = "N=" in key
        _check_record(record, workload, 1, 5, SIZED_KEYS if sized else RECORD_KEYS)
        assert record["seconds"] == (10 if sized else 30)
        assert record["correct"] == {"parent": True, "change": True}
        assert record["failed"] == {"parent": 0, "change": 0}
        env = record["env"]
        assert env["parent"]["git_revision"] != env["change"]["git_revision"]
    for n in sizes:
        record = doc["pairs"][f"lossy-churn seed 1 N={n}"]
        assert record["env"]["change"]["params"]["devices"] == n
        assert record["trace_lines"]["parent"] == record["trace_lines"]["change"]
