"""Scenario file parsing and CLI exit-code behavior."""

import subprocess
import sys
from pathlib import Path

import pytest

from wgiot import cli, crypto, wire
from wgiot.scenario import load_scenario, parse_scenario
from wgiot.simnet import (
    CaptureMatching,
    Inject,
    ReplayCaptured,
    RotateMpc,
    ScenarioError,
    StartIcd,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

REGISTRY_LINE = (
    "1 2 "
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f "
    "202122232425262728292a2b2c2d2e2f "
    "303132333435363738393a3b3c3d3e3f 0"
)

MINIMAL = f"""wgiot-scenario v1
[registry]
{REGISTRY_LINE}
"""


# -- parsing -------------------------------------------------------------------------


def test_minimal_scenario_parses():
    sc = parse_scenario(MINIMAL)
    assert len(sc.subscribers) == 1
    assert sc.subscribers[0].icd_in == 1
    assert sc.subscribers[0].esn == 2
    # implicit start for every subscriber when none is scheduled
    assert sc.schedule == [StartIcd("icd-1", at=0)]


def test_explicit_start_suppresses_implicit_ones():
    sc = parse_scenario(MINIMAL + "[schedule]\nstart icd-1 at 7\n")
    assert sc.schedule == [StartIcd("icd-1", at=7)]


def test_options_section():
    text = (
        "wgiot-scenario v1\n[options]\nbackend = trunc16\nmax_time = 500\n"
        "mpc_period = 9\nwbrac_id = 0x1234\n[registry]\n" + REGISTRY_LINE + "\n"
    )
    sc = parse_scenario(text)
    assert sc.backend == "trunc16"
    assert sc.max_time == 500
    assert sc.mpc_period == 9
    assert sc.wbrac_id == 0x1234


def test_links_section():
    sc = parse_scenario(MINIMAL + "[links]\nicd-1 map-1 delay=40 drop=0.5 dup=0.25\n")
    model = sc.links[("icd-1", "map-1")]
    assert (model.delay_ms, model.drop_prob, model.dup_prob) == (40, 0.5, 0.25)


def test_link_models_shared_within_one_file_only():
    text = MINIMAL + (
        "[links]\nicd-1 map-1 delay=5 drop=0.1\nmap-1 icd-1 delay=5 drop=0.1\n"
        "map-1 wbrac delay=7\n"
    )
    a, b = parse_scenario(text), parse_scenario(text)
    assert a.links[("icd-1", "map-1")] is a.links[("map-1", "icd-1")]
    assert a.links[("map-1", "wbrac")] is not a.links[("icd-1", "map-1")]
    assert a.links[("map-1", "wbrac")].delay_ms == 7
    assert a.links[("icd-1", "map-1")] is not b.links[("icd-1", "map-1")]
    assert a.links == b.links


def test_schedule_and_adversary_sections():
    text = MINIMAL + (
        "[schedule]\nstart icd-1 at 0\nrotate at 100 to map-1,icd-1\n"
        "[adversary]\ncapture AuthRequest\nreplay 0 at 200\n"
    )
    sc = parse_scenario(text)
    assert sc.schedule[1] == RotateMpc(at=100, targets=("map-1", "icd-1"))
    assert sc.adversary == [
        CaptureMatching(wire.AuthRequest.TAG),
        ReplayCaptured(index=0, at=200),
    ]


def test_inject_line_decodes_frame():
    frame_hex = wire.encode(wire.ChallengeAck()).hex()
    sc = parse_scenario(
        MINIMAL + f"[adversary]\ninject {frame_hex} to icd-1 at 10 from map-1\n"
    )
    (action,) = sc.adversary
    assert action == Inject(frame=wire.ChallengeAck(), to="icd-1", at=10, src="map-1")


def test_comments_and_blanks_ignored():
    sc = parse_scenario("# leading comment\n\nwgiot-scenario v1\n\n# more\n[registry]\n"
                        + REGISTRY_LINE + "\n")
    assert len(sc.subscribers) == 1


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("not-a-header\n", 1),
        ("wgiot-scenario v1\n[nonsense]\n", 2),
        ("wgiot-scenario v1\nstray content\n", 2),
        ("wgiot-scenario v1\n[options]\nbackend trunc16\n", 3),
        ("wgiot-scenario v1\n[options]\nmystery = 1\n", 3),
        ("wgiot-scenario v1\n[registry]\n1 2 aabb\n", 3),
        ("wgiot-scenario v1\n[registry]\n" + REGISTRY_LINE[:-1] + "x\n", 3),
        ("wgiot-scenario v1\n[links]\nicd-1\n", 3),
        ("wgiot-scenario v1\n[links]\nicd-1 map-1 warp=1\n", 3),
        ("wgiot-scenario v1\n[links]\nicd-1 map-1 drop=abc\n", 3),
        ("wgiot-scenario v1\n[links]\nicd-1 map-1 dup=abc\n", 3),
        ("wgiot-scenario v1\n[links]\nicd-1 map-1 drop=2.5\n", 3),
        ("wgiot-scenario v1\n[links]\nicd-1 map-1 dup=-0.1\n", 3),
        ("wgiot-scenario v1\n[links]\nicd-1 map-1 drop=nan\n", 3),
        ("wgiot-scenario v1\n[links]\nicd-1 map-1 delay=-5\n", 3),
        ("wgiot-scenario v1\n[links]\na b delay=5\nc d delay=5\ne f delay=5 x\n", 5),
        ("wgiot-scenario v1\n[schedule]\nlaunch icd-1 at 0\n", 3),
        ("wgiot-scenario v1\n[adversary]\ncapture NoSuchTag\n", 3),
        ("wgiot-scenario v1\n[adversary]\ninject zz to icd-1 at 0\n", 3),
        ("wgiot-scenario v1\n[adversary]\nreplay -1 at 50\n", 3),
        ("wgiot-scenario v1\n[adversary]\ncorrupt AuthRequest bit -3\n", 3),
        ("wgiot-scenario v1\n[adversary]\ncorrupt AuthRequest bit 512\n", 3),
        ("wgiot-scenario v1\n[adversary]\ncorrupt AuthAccept bit 0\n", 3),
        (MINIMAL + REGISTRY_LINE + "\n", 4),
        ("wgiot-scenario v1\n[registry]\n" + f"{2**64} " + REGISTRY_LINE[2:] + "\n", 3),
        ("wgiot-scenario v1\n[registry]\n1 -1 " + REGISTRY_LINE[4:] + "\n", 3),
        ("wgiot-scenario v1\n[registry]\n" + REGISTRY_LINE[:-1] + f"{2**128}\n", 3),
        ("wgiot-scenario v1\n[options]\nbackend = nope\n", 3),
        ("wgiot-scenario v1\n[options]\nwbrac_id = -1\n", 3),
        ("wgiot-scenario v1\n[expect]\nicd-1 becomes happy\n", 3),
        ("wgiot-scenario v1\n[expect]\nframe-count AuthAccept ~= 1\n", 3),
    ],
)
def test_malformed_lines_fail_with_line_number(text, lineno):
    with pytest.raises(ScenarioError, match=f"line {lineno}:"):
        parse_scenario(text)


def test_duplicate_icd_in_names_the_first_line():
    want = "^line 5: duplicate icd_in 1, first registered on line 3$"
    with pytest.raises(ScenarioError, match=want):
        parse_scenario(MINIMAL + "# again\n" + REGISTRY_LINE + "\n")


def test_corrupt_bit_may_be_any_payload_bit():
    text = MINIMAL + "[adversary]\ncorrupt AuthRequest bit 0\ncorrupt AuthRequest bit 511\n"
    assert [a.bit_index for a in parse_scenario(text).adversary] == [0, 511]


def test_empty_file_rejected():
    with pytest.raises(ScenarioError, match="empty"):
        parse_scenario("# only a comment\n")


def test_load_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/path.scn")


# -- CLI run -------------------------------------------------------------------------


def test_run_honest_scenario_exits_zero(capsys):
    assert cli.main(["run", str(SCENARIOS / "honest.scn")]) == 0
    assert capsys.readouterr().err == ""


def test_module_entry_point_exits_zero_with_empty_stderr():
    proc = subprocess.run(
        [sys.executable, "-m", "wgiot.cli", "run", str(SCENARIOS / "honest.scn")],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_run_update_and_replay_scenarios_exit_zero():
    assert cli.main(["run", str(SCENARIOS / "update.scn")]) == 0
    assert cli.main(["run", str(SCENARIOS / "replay.scn")]) == 0


def test_run_missing_scenario_exits_one(capsys):
    assert cli.main(["run", "/nonexistent/path.scn"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_malformed_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("wgiot-scenario v1\n[registry]\nnot enough fields\n")
    assert cli.main(["run", str(bad)]) == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,lineno",
    [
        (MINIMAL + REGISTRY_LINE + "\n", 4),
        ("wgiot-scenario v1\n[registry]\n" + f"{2**64} " + REGISTRY_LINE[2:] + "\n", 3),
        ("wgiot-scenario v1\n[registry]\n1 -1 " + REGISTRY_LINE[4:] + "\n", 3),
        ("wgiot-scenario v1\n[registry]\n" + REGISTRY_LINE[:-1] + f"{2**128}\n", 3),
        ("wgiot-scenario v1\n[options]\nbackend = nope\n[registry]\n" + REGISTRY_LINE + "\n", 3),
    ],
    ids=["duplicate-icd_in", "icd_in-65-bits", "negative-esn", "rmc-129-bits", "backend"],
)
def test_bad_registry_or_backend_exits_one_with_line_number(tmp_path, text, lineno):
    scn = tmp_path / "bad.scn"
    scn.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "wgiot.cli", "run", str(scn)], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert f"line {lineno}:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_failed_expectation_exits_two_and_still_writes_trace(tmp_path, capsys):
    scn = tmp_path / "fail.scn"
    scn.write_text(MINIMAL + "[expect]\nframe-count AuthAccept == 2\n")
    out = tmp_path / "run.trace"
    assert cli.main(["run", str(scn), "--trace", str(out)]) == 2
    assert "expect failed" in capsys.readouterr().err
    body = out.read_text()
    assert body.startswith("wgiot-trace v1\n")
    assert "AuthAccept" in body


def test_trace_flag_writes_serialized_trace(tmp_path):
    out = tmp_path / "honest.trace"
    assert cli.main(["run", str(SCENARIOS / "honest.scn"), "--trace", str(out)]) == 0
    golden = (SCENARIOS / "golden" / "honest.trace").read_text()
    assert out.read_text() == golden


def test_max_time_flag_truncates_run(tmp_path):
    scn = tmp_path / "slow.scn"
    scn.write_text(
        MINIMAL + "[links]\nicd-1 map-1 delay=100\n"
        "[expect]\nframe-count AuthRequest == 0\n"
    )
    # the request would arrive at t=100; capping earlier keeps it undelivered
    assert cli.main(["run", str(scn), "--max-time", "50"]) == 0


def test_repeated_start_is_traced_as_skipped_not_raised(tmp_path):
    scn = tmp_path / "twice.scn"
    scn.write_text(MINIMAL + "[schedule]\nstart icd-1 at 0\nstart icd-1 at 500\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wgiot.cli", "run", str(scn)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


# -- CLI vectors ---------------------------------------------------------------------


def test_vectors_stdout_matches_generate(capsys):
    assert cli.main(["vectors", "--backend", "hmac-sha256"]) == 0
    out = capsys.readouterr().out
    assert out == crypto.generate_vectors(crypto.get_backend("hmac-sha256"))


def test_vectors_out_file_matches_committed_artifact(tmp_path):
    committed = SCENARIOS.parent / "vectors" / "hmac-sha256.txt"
    out = tmp_path / "v.txt"
    assert cli.main(["vectors", "--out", str(out)]) == 0
    assert out.read_text() == committed.read_text()


def test_vectors_unknown_backend_exits_one(capsys):
    assert cli.main(["vectors", "--backend", "rot13"]) == 1
    assert "unknown backend" in capsys.readouterr().err
