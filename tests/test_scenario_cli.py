"""Scenario file parsing and CLI exit-code behavior."""

import copy
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path

import pytest

from conftest import make_subscriber
from wgiot import cli, crypto, scenario, simnet, wire
from wgiot.scenario import load_scenario, parse_scenario
from wgiot.simnet import (
    CaptureMatching,
    CorruptBit,
    Inject,
    LinkModel,
    ReplayCaptured,
    RotateMpc,
    Scenario,
    ScenarioError,
    SendParameterUpdate,
    Simulator,
    StartIcd,
    scenario_faults,
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
    assert sc.schedule == (StartIcd("icd-1", at=0),)


def test_explicit_start_suppresses_implicit_ones():
    sc = parse_scenario(MINIMAL + "[schedule]\nstart icd-1 at 7\n")
    assert sc.schedule == (StartIcd("icd-1", at=7),)


def test_options_section():
    text = (
        "wgiot-scenario v1\n[options]\nmax_time = 500\n"
        "mpc_period = 9\n[registry]\n" + REGISTRY_LINE + "\n"
    )
    sc = parse_scenario(text)
    assert sc.max_time == 500
    assert sc.mpc_period == 9


def test_the_network_identifier_is_no_option():
    # one network, one WBRAC: its identifier is `crypto.WBRAC_ID`
    with pytest.raises(ScenarioError, match="^line 3: unknown option 'wbrac_id'$"):
        parse_scenario("wgiot-scenario v1\n[options]\nwbrac_id = 1\n[registry]\n" + REGISTRY_LINE)


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
    assert sc.adversary == (
        CaptureMatching(wire.AuthRequest.TAG),
        ReplayCaptured(index=0, at=200),
    )


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
        ("wgiot-scenario v1\n[options]\nmax_time = -5\n", 3),
        ("wgiot-scenario v1\n[options]\nmpc_period = -1\n", 3),
        ("wgiot-scenario v1\n[schedule]\nstart icd-1 at -100\n", 3),
        ("wgiot-scenario v1\n[schedule]\nrotate at -1 to map-1\n", 3),
        ("wgiot-scenario v1\n[schedule]\nparam-update at -1 to map-1\n", 3),
        ("wgiot-scenario v1\n[adversary]\nreplay 0 at -50\n", 3),
        ("wgiot-scenario v1\n[adversary]\ninject 090000 to icd-1 at -10\n", 3),
        ("wgiot-scenario v1\n[expect]\nicd-1 becomes happy\n", 3),
        ("wgiot-scenario v1\n[expect]\nframe-count AuthAccept ~= 1\n", 3),
    ],
)
def test_malformed_lines_fail_with_line_number(text, lineno):
    with pytest.raises(ScenarioError, match=f"line {lineno}:"):
        parse_scenario(text)


def test_duplicate_icd_in_names_the_first_line():
    want = "^line 5: duplicate icd_in 1, first registered by icd-1$"
    with pytest.raises(ScenarioError, match=want):
        parse_scenario(MINIMAL + "# again\n" + REGISTRY_LINE + "\n")


# Inputs that loaded without complaint before names and trailing tokens were
# checked, each with its whole error message.
REJECTED = [
    pytest.param(
        MINIMAL + "[schedule]\nstart icd-1 at 5 extra junk\n",
        "line 5: unrecognized schedule line 'start icd-1 at 5 extra junk'",
        id="start-trailing",
    ),
    pytest.param(
        MINIMAL + "[schedule]\nrotate at 5 to map-1 now\n",
        "line 5: unrecognized schedule line 'rotate at 5 to map-1 now'",
        id="rotate-trailing",
    ),
    pytest.param(
        MINIMAL + "[expect]\nframe-count AuthAccept == 1 extra\n",
        "line 5: unrecognized expectation 'frame-count AuthAccept == 1 extra'",
        id="frame-count-trailing",
    ),
    pytest.param(
        MINIMAL + "[expect]\ntrace-golden a.trace b.trace\n",
        "line 5: unrecognized expectation 'trace-golden a.trace b.trace'",
        id="trace-golden-trailing",
    ),
    pytest.param(
        MINIMAL + "[adversary]\ninject 050000 to icd-1 at 3 from\n",
        "line 5: unrecognized adversary line 'inject 050000 to icd-1 at 3 from'",
        id="inject-dangling-from",
    ),
    pytest.param(
        MINIMAL + "[adversary]\ninject 050000 to icd-1 at 3 via map-1\n",
        "line 5: unrecognized adversary line 'inject 050000 to icd-1 at 3 via map-1'",
        id="inject-not-from",
    ),
    pytest.param(
        MINIMAL + "[adversary]\ncapture AuthRequest twice\n",
        "line 5: unrecognized adversary line 'capture AuthRequest twice'",
        id="capture-trailing",
    ),
    pytest.param(
        MINIMAL + "[adversary]\nreplay 0 at 5 6\n",
        "line 5: unrecognized adversary line 'replay 0 at 5 6'",
        id="replay-trailing",
    ),
    pytest.param(
        MINIMAL + "[links]\nicd-1 map-1 delay=5 delay=7\n",
        "line 5: repeated link attribute 'delay'",
        id="repeated-attribute",
    ),
    pytest.param(
        MINIMAL + "[links]\nicd-1 map-1 delay=5\n# again\nicd-1 map-1 drop=0.1\n",
        "line 7: duplicate link icd-1 -> map-1, first declared on line 5",
        id="duplicate-link",
    ),
    pytest.param(
        MINIMAL + "[links]\nicd-1 map1 delay=5\n",
        "line 5: unknown agent 'map1'",
        id="link-endpoint",
    ),
    pytest.param(
        MINIMAL + "[schedule]\nstart icd-9 at 0\n",
        "line 5: unknown device 'icd-9'",
        id="start-agent",
    ),
    pytest.param(
        MINIMAL + "[schedule]\nstart map-1 at 0\n",
        "line 5: unknown device 'map-1'",
        id="start-not-a-device",
    ),
    pytest.param(
        MINIMAL + "[schedule]\nrotate at 5 to map-1,icd-2\n",
        "line 5: unknown agent 'icd-2'",
        id="rotate-target",
    ),
    pytest.param(
        MINIMAL + "[schedule]\nrotate at 5 to ,\n",
        "line 5: broadcast has no targets",
        id="rotate-no-target",
    ),
    pytest.param(
        MINIMAL + "[schedule]\nparam-update at 5 to icd-0\n",
        "line 5: unknown agent 'icd-0'",
        id="param-update-target",
    ),
    pytest.param(
        MINIMAL + "[adversary]\ninject 090000 to icd-2 at 3\n",
        "line 5: unknown agent 'icd-2'",
        id="inject-target",
    ),
    pytest.param(
        MINIMAL + "[expect]\nicd-2 reaches Authenticated\n",
        "line 5: unknown agent 'icd-2'",
        id="reaches-agent",
    ),
    pytest.param(
        MINIMAL + "[expect]\nicd-1 reaches Authenticatd\n",
        "line 5: icd-1 has no state 'Authenticatd'",
        id="reaches-state",
    ),
    pytest.param(
        MINIMAL + "[expect]\nframe-count Nope == 0\n",
        "line 5: unknown frame 'Nope'",
        id="frame-count-frame",
    ),
    # names are checked once every section is read; the first bad line is named
    pytest.param(
        "wgiot-scenario v1\n[schedule]\nstart icd-2 at 0\n[links]\nicd-3 map-1\n"
        "[registry]\n" + REGISTRY_LINE + "\n",
        "line 3: unknown device 'icd-2'",
        id="name-before-registry",
    ),
]


@pytest.mark.parametrize("text,message", REJECTED)
def test_rejected_input_exits_one_without_traceback(tmp_path, text, message):
    scn = tmp_path / "bad.scn"
    scn.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "wgiot.cli", "run", str(scn)], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")


def _registry_row(icd_in="2", esn="2", key="00" * 32, sc_auth_k="11" * 16, sd="22" * 16) -> str:
    """A second registry row, as file text, with the given field tokens."""
    return f"{icd_in} {esn} {key} {sc_auth_k} {sd} 0"


# Each fault of REJECTED, of the payload range and of the value rules, written
# as a file section and built in code: the file fails on line 5 and Simulator
# fails on the built scenario, with the same reason.
REGISTRY_ROW_2 = _registry_row(key="00" * 31)

CODE_REJECTED = [
    pytest.param(
        "[links]\nicd-1 map1\n",
        {"links": {("icd-1", "map1"): LinkModel()}},
        "unknown agent 'map1'",
        id="link-endpoint",
    ),
    pytest.param(
        "[schedule]\nstart icd-9 at 0\n",
        {"schedule": [StartIcd("icd-9", at=0)]},
        "unknown device 'icd-9'",
        id="start-agent",
    ),
    pytest.param(
        "[schedule]\nstart map-1 at 0\n",
        {"schedule": [StartIcd("map-1", at=0)]},
        "unknown device 'map-1'",
        id="start-not-a-device",
    ),
    pytest.param(
        "[schedule]\nrotate at 5 to map-1,icd-2\n",
        {"schedule": [RotateMpc(at=5, targets=("map-1", "icd-2"))]},
        "unknown agent 'icd-2'",
        id="rotate-target",
    ),
    pytest.param(
        "[schedule]\nrotate at 5 to ,\n",
        {"schedule": [RotateMpc(at=5, targets=())]},
        "broadcast has no targets",
        id="rotate-no-target",
    ),
    pytest.param(
        "[schedule]\nparam-update at 5 to icd-0\n",
        {"schedule": [SendParameterUpdate(at=5, targets=("icd-0",))]},
        "unknown agent 'icd-0'",
        id="param-update-target",
    ),
    pytest.param(
        "[adversary]\ninject 090000 to icd-2 at 3\n",
        {"adversary": [Inject(wire.ChallengeAck(), to="icd-2", at=3)]},
        "unknown agent 'icd-2'",
        id="inject-target",
    ),
    pytest.param(
        "[expect]\nicd-2 reaches Authenticated\n",
        {"expects": [("reaches", "icd-2", "Authenticated")]},
        "unknown agent 'icd-2'",
        id="reaches-agent",
    ),
    pytest.param(
        "[expect]\nmap-1 reaches Authenticated\n",
        {"expects": [("reaches", "map-1", "Authenticated")]},
        "map-1 has no state 'Authenticated'",
        id="reaches-state",
    ),
    pytest.param(
        "[expect]\nicd-2 ends Authenticated\n",
        {"expects": [("ends", "icd-2", "Authenticated")]},
        "unknown agent 'icd-2'",
        id="ends-agent",
    ),
    pytest.param(
        "[expect]\nicd-1 ends Authenticatd\n",
        {"expects": [("ends", "icd-1", "Authenticatd")]},
        "icd-1 has no state 'Authenticatd'",
        id="ends-state",
    ),
    pytest.param(
        "[adversary]\ncorrupt AuthAccept bit 3\n",
        {"adversary": [CorruptBit(wire.AuthAccept.TAG, 3)]},
        "bit 3 outside the 0-bit payload of AuthAccept",
        id="corrupt-empty-payload",
    ),
    pytest.param(
        "[adversary]\ncorrupt AuthRequest bit -3\n",
        {"adversary": [CorruptBit(wire.AuthRequest.TAG, -3)]},
        "bit -3 outside the 512-bit payload of AuthRequest",
        id="corrupt-negative-bit",
    ),
    pytest.param(
        "[schedule]\nstart icd-1 at -100\n",
        {"schedule": [StartIcd("icd-1", at=-100)]},
        "negative time -100",
        id="start-negative-time",
    ),
    pytest.param(
        "[schedule]\nrotate at -1 to map-1\n",
        {"schedule": [RotateMpc(at=-1, targets=("map-1",))]},
        "negative time -1",
        id="rotate-negative-time",
    ),
    pytest.param(
        "[adversary]\ninject 090000 to icd-1 at -10\n",
        {"adversary": [Inject(wire.ChallengeAck(), to="icd-1", at=-10)]},
        "negative time -10",
        id="inject-negative-time",
    ),
    pytest.param(
        "[options]\nmax_time = -5\n",
        {"max_time": -5},
        "negative max_time -5",
        id="negative-max-time",
    ),
    pytest.param(
        "[options]\nmpc_period = -1\n",
        {"mpc_period": -1},
        "negative mpc_period -1",
        id="negative-mpc-period",
    ),
    pytest.param(
        "[links]\nicd-1 map-1 delay=-50\n",
        {"links": {("icd-1", "map-1"): LinkModel(delay_ms=-50)}},
        "negative delay -50",
        id="negative-delay",
    ),
    pytest.param(
        "[links]\nicd-1 map-1 drop=1.5\n",
        {"links": {("icd-1", "map-1"): LinkModel(drop_prob=1.5)}},
        "drop probability 1.5 outside [0, 1]",
        id="drop-above-one",
    ),
    pytest.param(
        "[links]\nicd-1 map-1 dup=nan\n",
        {"links": {("icd-1", "map-1"): LinkModel(dup_prob=float("nan"))}},
        "dup probability nan outside [0, 1]",
        id="dup-nan",
    ),
    pytest.param(
        "[adversary]\nreplay -1 at 50\n",
        {"adversary": [ReplayCaptured(index=-1, at=50)]},
        "negative replay index -1",
        id="negative-replay-index",
    ),
    pytest.param(
        "[registry]\n" + REGISTRY_LINE + "\n",
        {"subscribers": [make_subscriber(), make_subscriber(seed=1)]},
        "duplicate icd_in 1, first registered by icd-1",
        id="duplicate-icd_in",
    ),
    pytest.param(
        "[registry]\n2" + REGISTRY_LINE[1:-1] + f"{2**128}\n",
        {"subscribers": [make_subscriber(), replace(make_subscriber(icd_in=2), rmc=2**128)]},
        f"rmc {2**128} does not fit in 128 bits",
        id="rmc-129-bits",
    ),
    pytest.param(
        "[registry]\n" + REGISTRY_ROW_2 + "\n",
        {"subscribers": [make_subscriber(), replace(make_subscriber(icd_in=2), key=bytes(31))]},
        "key must be 32 bytes, got 31",
        id="key-31-bytes",
    ),
    pytest.param(
        "[registry]\n" + _registry_row(sc_auth_k="11" * 15) + "\n",
        {"subscribers": [make_subscriber(), replace(make_subscriber(icd_in=2), sc_auth_k=bytes(15))]},
        "sc_auth_k must be 16 bytes, got 15",
        id="sc_auth_k-15-bytes",
    ),
    pytest.param(
        "[registry]\n" + _registry_row(sd="22" * 17) + "\n",
        {"subscribers": [make_subscriber(), replace(make_subscriber(icd_in=2), sd=bytes(17))]},
        "sd must be 16 bytes, got 17",
        id="sd-17-bytes",
    ),
    pytest.param(
        "[registry]\n" + _registry_row(icd_in=f"{2**64}") + "\n",
        {"subscribers": [make_subscriber(), make_subscriber(icd_in=2**64)]},
        f"icd_in {2**64} does not fit in 64 bits",
        id="icd_in-65-bits",
    ),
    pytest.param(
        "[registry]\n" + _registry_row(esn="-1") + "\n",
        {"subscribers": [make_subscriber(), make_subscriber(icd_in=2, esn=-1)]},
        "esn -1 does not fit in 64 bits",
        id="negative-esn",
    ),
    pytest.param(
        "[expect]\nframe-count Nope == 0\n",
        {"expects": [("frame-count", "Nope", "==", 0)]},
        "unknown frame 'Nope'",
        id="frame-count-frame",
    ),
]


@pytest.mark.parametrize("section,fields,reason", CODE_REJECTED)
def test_scenarios_built_in_code_get_the_file_checks(section, fields, reason):
    with pytest.raises(ScenarioError, match=f"^line 5: {re.escape(reason)}$"):
        parse_scenario(MINIMAL + section)
    with pytest.raises(ScenarioError, match=f"^{re.escape(reason)}$"):
        Scenario(**{"subscribers": [make_subscriber()], **fields})


# Values a scenario file cannot hold, since its parser makes ints, bytes,
# frames, lists and dicts: each is rejected when the scenario is built, like
# the rows of CODE_REJECTED.
CODE_ONLY_REJECTED = {
    "registry-None": ({"subscribers": None}, "subscribers None is not a list or tuple"),
    "schedule-None": ({"schedule": None}, "schedule None is not a list or tuple"),
    # a tick is queued as a str and a burst as a tuple, so neither may be a schedule item
    "schedule-str": ({"schedule": ["icd-1"]}, "unknown schedule item 'icd-1'"),
    "schedule-tuple": ({"schedule": [("icd-1", 0)]}, "unknown schedule item ('icd-1', 0)"),
    "adversary-a-str": ({"adversary": "capture"}, "adversary 'capture' is not a list or tuple"),
    "links-list": (
        {"links": [("icd-1", "map-1")]},
        "links [('icd-1', 'map-1')] is not a mapping",
    ),
    "key-str": (
        {"subscribers": [replace(make_subscriber(), key="00" * 32)]},
        "key must be 32 bytes, got str",
    ),
    "sc_auth_k-bytearray": (
        {"subscribers": [replace(make_subscriber(), sc_auth_k=bytearray(16))]},
        "sc_auth_k must be 16 bytes, got bytearray",
    ),
    "sd-None": (
        {"subscribers": [replace(make_subscriber(), sd=None)]},
        "sd must be 16 bytes, got NoneType",
    ),
    "start-float-time": ({"schedule": [StartIcd("icd-1", at=1.5)]}, "time 1.5 is not an int"),
    "rotate-bool-time": (
        {"schedule": [RotateMpc(at=True, targets=("map-1",))]},
        "time True is not an int",
    ),
    "float-delay": (
        {"links": {("icd-1", "map-1"): LinkModel(delay_ms=1.5)}},
        "delay 1.5 is not an int",
    ),
    "float-esn": ({"subscribers": [replace(make_subscriber(), esn=2.0)]}, "esn 2.0 is not an int"),
    "str-icd_in": ({"subscribers": [make_subscriber(icd_in="1")]}, "icd_in '1' is not an int"),
    "list-icd_in": ({"subscribers": [make_subscriber(icd_in=[1])]}, "icd_in [1] is not an int"),
    "float-rmc": ({"subscribers": [replace(make_subscriber(), rmc=0.0)]}, "rmc 0.0 is not an int"),
    "float-max-time": ({"max_time": 1e3}, "max_time 1000.0 is not an int"),
    "none-mpc-period": ({"mpc_period": None}, "mpc_period None is not an int"),
    "inject-hex": (
        {"adversary": [Inject("050000", to="icd-1", at=1)]},
        "injected str is not a frame",
    ),
    "inject-float-time": (
        {"adversary": [Inject(wire.ChallengeAck(), to="icd-1", at=0.5)]},
        "time 0.5 is not an int",
    ),
    "float-replay-index": (
        {"adversary": [ReplayCaptured(index=0.0, at=5)]},
        "replay index 0.0 is not an int",
    ),
    "float-bit-index": (
        {"adversary": [CorruptBit(wire.AuthRequest.TAG, 1.0)]},
        "bit index 1.0 is not an int",
    ),
    "corrupt-str-tag": (
        {"adversary": [CorruptBit("AuthRequest", 3)]},
        "tag 'AuthRequest' names no frame",
    ),
    "capture-str-tag": (
        {"adversary": [CaptureMatching("AuthRequest")]},
        "tag 'AuthRequest' names no frame",
    ),
    "capture-unknown-tag": ({"adversary": [CaptureMatching(0x99)]}, "tag 153 names no frame"),
    "str-drop": (
        {"links": {("icd-1", "map-1"): LinkModel(drop_prob="0.5")}},
        "drop probability '0.5' is not a number",
    ),
    "bool-dup": (
        {"links": {("icd-1", "map-1"): LinkModel(dup_prob=True)}},
        "dup probability True is not a number",
    ),
    "rotate-str-targets": (
        {"schedule": [RotateMpc(at=5, targets="map-1")]},
        "targets 'map-1' are not a tuple of agent names",
    ),
    "start-list-device": (
        {"schedule": [StartIcd(["icd-1"], at=0)]},
        "device name ['icd-1'] is not a str",
    ),
    "inject-list-target": (
        {"adversary": [Inject(wire.ChallengeAck(), to=["map-1"], at=1)]},
        "target ['map-1'] is not a str",
    ),
    "inject-none-sender": (
        {"adversary": [Inject(wire.ChallengeAck(), to="map-1", at=1, src=None)]},
        "sender None is not a str",
    ),
    "reaches-list-agent": (
        {"expects": [("reaches", ["icd-1"], "Idle")]},
        "agent name ['icd-1'] is not a str",
    ),
    "reaches-list-state": (
        {"expects": [("reaches", "icd-1", ["Idle"])]},
        "icd-1 has no state ['Idle']",
    ),
    "expect-unknown-kind": ({"expects": [("bogus", 1)]}, "unrecognized expectation ('bogus', 1)"),
    "expect-list": (
        {"expects": [["reaches", "icd-1", "Idle"]]},
        "unrecognized expectation ['reaches', 'icd-1', 'Idle']",
    ),
    "reaches-two-items": (
        {"expects": [("reaches", "icd-1")]},
        "unrecognized expectation ('reaches', 'icd-1')",
    ),
    "frame-count-five-items": (
        {"expects": [("frame-count", "AuthAccept", "==", 1, 2)]},
        "unrecognized expectation ('frame-count', 'AuthAccept', '==', 1, 2)",
    ),
    "frame-count-unknown-operator": (
        {"expects": [("frame-count", "AuthAccept", "=~", 1)]},
        "unknown frame-count operator '=~'",
    ),
    "frame-count-str-count": (
        {"expects": [("frame-count", "AuthAccept", "==", "1")]},
        "frame count '1' is not an int",
    ),
    "frame-count-bool-count": (
        {"expects": [("frame-count", "AuthAccept", ">=", True)]},
        "frame count True is not an int",
    ),
    "frame-count-list-frame": (
        {"expects": [("frame-count", ["AuthAccept"], "==", 1)]},
        "unknown frame ['AuthAccept']",
    ),
    "trace-golden-int-path": (
        {"expects": [("trace-golden", 5)]},
        "golden trace path 5 is not a path",
    ),
    "adversary-start": (
        {"adversary": [StartIcd("icd-1", at=0)]},
        "unknown adversary item StartIcd(agent_id='icd-1', at=0)",
    ),
    "adversary-str": ({"adversary": ["icd-1"]}, "unknown adversary item 'icd-1'"),
    "registry-row-tuple": (
        {"subscribers": [(1, 2)]},
        "registry row (1, 2) is not a SubscriberSpec",
    ),
    "link-model-int": (
        {"links": {("icd-1", "map-1"): 5}},
        "link model 5 is not a LinkModel",
    ),
    "link-key-str": (
        {"links": {"icd-1": LinkModel()}},
        "link 'icd-1' is not a (src, dst) pair",
    ),
    "link-key-1-tuple": (
        {"links": {("icd-1",): LinkModel()}},
        "link ('icd-1',) is not a (src, dst) pair",
    ),
}


@pytest.mark.parametrize(
    "fields,reason", CODE_ONLY_REJECTED.values(), ids=CODE_ONLY_REJECTED.keys()
)
def test_scenarios_built_in_code_must_hold_ints_bytes_and_frames(fields, reason):
    with pytest.raises(ScenarioError, match=f"^{re.escape(reason)}$"):
        Scenario(**{"subscribers": [make_subscriber()], **fields})


@pytest.mark.parametrize(
    "op,holds", [("==", True), ("!=", False), (">=", True), ("<=", True), (">", False), ("<", False)]
)
def test_a_frame_count_built_in_code_is_checked_with_the_parsers_operators(op, holds):
    assert scenario.FRAME_COUNT_OPS is simnet.FRAME_COUNT_OPS
    expect = ("frame-count", "AuthAccept", op, 1)
    sc = Scenario([make_subscriber()], schedule=[StartIcd("icd-1", at=0)], expects=[expect])
    sim = Simulator(sc, seed=0)
    trace = sim.run()
    assert trace.frame_count("AuthAccept") == 1
    failures = scenario.check_expects(sim)
    assert failures == ([] if holds else [f"frame-count AuthAccept: got 1, wanted {op} 1"])


@pytest.mark.parametrize(
    "frame,reason",
    [
        (wire.AuthRequest(1, 2, b"short"), "guid must be 48 bytes, got 5"),
        (wire.AccessDenied(256), "reason must be an int in [0, 2**8), got 256"),
    ],
    ids=["guid-5-bytes", "reason-256"],
)
def test_an_injected_frame_that_does_not_encode_is_rejected_before_the_run(frame, reason):
    reason = f"injected {type(frame).__name__} does not encode: {reason}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(reason)}$"):
        Scenario([make_subscriber()], adversary=[Inject(frame, to="map-1", at=3)])


def test_sections_may_name_agents_before_the_registry():
    text = (
        "wgiot-scenario v1\n[schedule]\nstart icd-1 at 3\nrotate at 5 to wbrac,map-1,icd-1\n"
        "[links]\nicd-1 map-1 delay=5\n[adversary]\ninject 090000 to icd-1 at 3\n"
        "[expect]\nicd-1 reaches Authenticated\n[registry]\n" + REGISTRY_LINE + "\n"
    )
    sc = parse_scenario(text)
    assert [s.agent_id for s in sc.schedule if isinstance(s, StartIcd)] == ["icd-1"]


def test_corrupt_bit_may_be_any_payload_bit():
    text = MINIMAL + "[adversary]\ncorrupt AuthRequest bit 0\ncorrupt AuthRequest bit 511\n"
    assert [a.bit_index for a in parse_scenario(text).adversary] == [0, 511]


def test_empty_file_rejected():
    with pytest.raises(ScenarioError, match="empty"):
        parse_scenario("# only a comment\n")


def test_load_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/path.scn")


# The line a value fault is reported on: equal items map to their first line,
# an option to the line that set it last, and a line the parser cannot read
# fails before anything after it is looked at.
LINE_RULES = [
    pytest.param(
        MINIMAL + "[schedule]\nstart icd-9 at 5\nstart icd-9 at 5\n",
        "line 5: unknown device 'icd-9'",
        id="equal-items-first-line",
    ),
    pytest.param(
        MINIMAL + "[options]\nmax_time = 5\nmax_time = -1\n",
        "line 6: negative max_time -1",
        id="option-last-line",
    ),
    pytest.param(
        MINIMAL + "[links]\nicd-1\n[nonsense]\n",
        "line 5: link line needs: <src> <dst> [delay=N] [drop=P] [dup=P]",
        id="first-unreadable-line",
    ),
]


@pytest.mark.parametrize("text,message", LINE_RULES)
def test_fault_line_rules(text, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(text)


# -- one check per scenario, when it is built ---------------------------------------

# two devices, impaired links, and three broadcasts to the same targets
FLEET_TEXT = MINIMAL + REGISTRY_LINE.replace("1 2", "2 3", 1) + (
    "\n[links]\nicd-1 map-1 delay=3 drop=0.4\nwbrac icd-2 dup=0.5\n"
    "[schedule]\nstart icd-1 at 0\nstart icd-2 at 4\n"
    "rotate at 5 to map-1,icd-1,icd-2\nparam-update at 9 to map-1,icd-1,icd-2\n"
    "rotate at 1500 to map-1,icd-1,icd-2\n"
)


def test_scenario_faults_runs_once_per_built_scenario_and_never_in_the_simulator(monkeypatch):
    calls = []

    def counting(sc):
        calls.append(sc)
        return scenario_faults(sc)

    monkeypatch.setattr(simnet, "scenario_faults", counting)
    assert not hasattr(scenario, "scenario_faults")  # the parser checks by building
    sc = parse_scenario(FLEET_TEXT)
    built = Scenario([make_subscriber()])
    assert calls == [sc, built]
    Simulator(sc, seed=0).run()
    Simulator(built, seed=0).run()
    assert calls == [sc, built]
    later = replace(sc, max_time=10)
    assert calls == [sc, built, later]


def test_a_parsed_scenario_cannot_change_in_place():
    sc = parse_scenario(FLEET_TEXT)
    for field in ("subscribers", "schedule", "adversary", "expects"):
        assert type(getattr(sc, field)) is tuple, field
    pair = ("icd-1", "map-1")
    for change in (
        lambda links: links.__setitem__(pair, LinkModel()),
        lambda links: links.__delitem__(pair),
        lambda links: links.update({pair: LinkModel()}),
        lambda links: links.setdefault(("map-1", "icd-1"), LinkModel()),
        lambda links: links.pop(pair),
        lambda links: links.popitem(),
        lambda links: links.clear(),
        lambda links: links.__ior__({pair: LinkModel()}),
    ):
        with pytest.raises(TypeError, match="read-only"):
            change(sc.links)
    assert sc.links[pair] == LinkModel(delay_ms=3, drop_prob=0.4) and len(sc.links) == 2


def test_no_field_or_link_of_a_built_scenario_can_change():
    pair = ("icd-1", "map-1")
    links = {pair: LinkModel(delay_ms=3)}
    schedule = [StartIcd("icd-1", at=0)]
    built = Scenario([make_subscriber()], links, schedule)
    for sc in (parse_scenario(FLEET_TEXT), built):
        for field in dataclass_fields(sc):
            with pytest.raises(FrozenInstanceError):
                setattr(sc, field.name, getattr(sc, field.name))
        with pytest.raises(TypeError, match="read-only"):
            sc.links[pair] = LinkModel()
    # the scenario holds copies of the containers it was given
    links[pair] = LinkModel(drop_prob=1.0)
    schedule.clear()
    assert built.links == {pair: LinkModel(delay_ms=3)}
    assert built.schedule == (StartIcd("icd-1", at=0),)


@pytest.mark.parametrize(
    "field,value,reason",
    [
        ("max_time", -5, "negative max_time -5"),
        ("links", {("icd-1", "nowhere"): LinkModel()}, "unknown agent 'nowhere'"),
        ("schedule", (StartIcd("icd-3", at=0),), "unknown device 'icd-3'"),
        (
            "subscribers",
            (make_subscriber(icd_in=4), make_subscriber(icd_in=4)),
            "duplicate icd_in 4, first registered by icd-1",
        ),
    ],
    ids=["max_time", "links", "schedule", "subscribers"],
)
def test_a_replaced_field_of_a_parsed_scenario_is_checked_again(field, value, reason):
    sc = parse_scenario(FLEET_TEXT)
    with pytest.raises(ScenarioError, match=f"^{re.escape(reason)}$"):
        replace(sc, **{field: value})


def test_equal_broadcast_target_texts_share_one_tuple():
    sc = parse_scenario(FLEET_TEXT)
    first, update, last = (item for item in sc.schedule if not isinstance(item, StartIcd))
    assert first.targets is update.targets is last.targets == ("map-1", "icd-1", "icd-2")
    assert first.targets is not parse_scenario(FLEET_TEXT).schedule[2].targets


def test_an_unknown_name_in_a_shared_target_list_fails_at_its_first_line():
    text = MINIMAL + "[schedule]\nrotate at 5 to map-1,icd-9\nrotate at 9 to map-1,icd-9\n"
    message = "line 5: unknown agent 'icd-9'"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(text)


def test_equal_but_distinct_target_tuples_are_each_checked():
    names = ["map-1", "icd-9"]
    shared = tuple(names)
    with pytest.raises(ScenarioError) as one_check:
        Scenario(
            [make_subscriber()],
            schedule=[RotateMpc(at=5, targets=shared), RotateMpc(at=9, targets=shared)],
        )
    assert [key.at for key, _ in one_check.value.faults] == [5]
    schedule = [RotateMpc(at=5, targets=tuple(names)), RotateMpc(at=9, targets=tuple(names))]
    assert schedule[0].targets is not schedule[1].targets
    with pytest.raises(ScenarioError, match="^unknown agent 'icd-9'$") as two_checks:
        Scenario([make_subscriber()], schedule=schedule)
    assert two_checks.value.faults == (
        (schedule[0], "unknown agent 'icd-9'"),
        (schedule[1], "unknown agent 'icd-9'"),
    )


def test_a_deep_copied_simulator_of_a_parsed_scenario_runs_to_the_same_trace():
    sim = Simulator(parse_scenario(FLEET_TEXT), seed=3)
    for _ in range(6):
        sim.step()
    clone = copy.deepcopy(sim)
    assert type(clone.scenario.links) is type(sim.scenario.links)
    assert clone.run().serialize() == sim.run().serialize()
    assert len(sim.trace.notes) > 6


# Characters `str.splitlines` breaks a line at but universal newlines (and an
# editor) do not: each stays inside its comment.
IN_LINE_SEPARATORS = pytest.mark.parametrize(
    "sep",
    ["\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=["FF", "VT", "FS", "GS", "RS", "NEL", "LS", "PS"],
)


@IN_LINE_SEPARATORS
def test_separator_inside_a_comment_does_not_end_the_line(sep):
    head = f"wgiot-scenario v1\n# note{sep}more\n[registry]\n{REGISTRY_LINE}\n"
    assert len(parse_scenario(head).subscribers) == 1
    with pytest.raises(ScenarioError, match="^line 6: unknown device 'icd-9'$"):
        parse_scenario(head + "[schedule]\nstart icd-9 at 0\n")


@IN_LINE_SEPARATORS
def test_non_utf8_line_number_ignores_in_line_separators(tmp_path, sep):
    scn = tmp_path / "bad.scn"
    scn.write_bytes(f"wgiot-scenario v1\n# note{sep}more\n".encode() + b"\xff\n")
    with pytest.raises(ScenarioError, match="^line 3: not UTF-8: invalid start byte$"):
        load_scenario(scn)


def test_lone_cr_and_crlf_end_lines():
    text = "wgiot-scenario v1\r[registry]\r\n" + REGISTRY_LINE + "\r[schedule]\nstart icd-9 at 0\r"
    with pytest.raises(ScenarioError, match="^line 5: unknown device 'icd-9'$"):
        parse_scenario(text)


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


def test_every_regression_scenario_exits_zero(capsys):
    """Each file in scenarios/regress reproduces a fault that was mended;
    its expectations hold only while the fault stays mended."""
    paths = sorted((SCENARIOS / "regress").glob("*.scn"))
    assert paths
    failed = [path.name for path in paths if cli.main(["run", str(path)]) != 0]
    assert failed == [], capsys.readouterr().err


# Each file in scenarios/open -> the failure of its last expectation, the
# one that the fix of its defect must make hold.
OPEN_DEFECTS = {
    "pending_flow_never_expires.scn": "icd-1 ends AwaitingAuthResult, expected Authenticated",
    "spoofed_auth_accept.scn": "icd-1 ends Authenticated, expected AwaitingAuthResult",
    "lost_update_confirmation.scn": "icd-1 ends Denied, expected Authenticated",
    "replayed_request_ends_session.scn": "icd-1 ends Idle, expected Authenticated",
}


@pytest.mark.parametrize("name", sorted(OPEN_DEFECTS))
def test_every_open_defect_scenario_still_fails_its_last_expectation(name, capsys):
    """Each file in scenarios/open reproduces a defect that is not mended
    yet, and fails only its last expectation.  A fix that makes it hold
    fails this test until the file moves to scenarios/regress."""
    path = SCENARIOS / "open" / name
    _, agent, state = load_scenario(path).expects[-1]
    failure = OPEN_DEFECTS[name]
    assert failure.startswith(f"{agent} ends ") and failure.endswith(f", expected {state}")
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"expect failed: {failure}\n"


def test_every_open_defect_scenario_is_listed():
    assert sorted(path.name for path in (SCENARIOS / "open").glob("*.scn")) == sorted(OPEN_DEFECTS)


def test_run_missing_scenario_exits_one(capsys):
    assert cli.main(["run", "/nonexistent/path.scn"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_malformed_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("wgiot-scenario v1\n[registry]\nnot enough fields\n")
    assert cli.main(["run", str(bad)]) == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data,message",
    [
        (b"wgiot-scenario v1\n[options]\nmax_time = 10\n\xff\n", "line 4: not UTF-8: invalid start byte"),
        (
            b"wgiot-scenario v1\r\n[options]\r\nmax_time = 1\xc3\r\n",
            "line 3: not UTF-8: invalid continuation byte",
        ),
        (b"\xfe", "line 1: not UTF-8: invalid start byte"),
    ],
    ids=["own-line", "crlf-mid-line", "first-byte"],
)
def test_non_utf8_scenario_exits_one_with_line_number(tmp_path, data, message):
    scn = tmp_path / "bad.scn"
    scn.write_bytes(data)
    proc = subprocess.run(
        [sys.executable, "-m", "wgiot.cli", "run", str(scn)], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")


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


def test_a_state_never_reached_and_a_missing_golden_file_each_fail(tmp_path, capsys):
    text = (SCENARIOS / "honest.scn").read_text().replace(
        "trace-golden golden/honest.trace\n", "trace-golden missing.trace\nicd-1 reaches Denied\n"
    )
    scn = tmp_path / "honest.scn"
    scn.write_text(text)
    missing = tmp_path / "missing.trace"
    assert ("trace-golden", missing) in load_scenario(scn).expects
    assert cli.main(["run", str(scn)]) == 2
    assert capsys.readouterr().err == (
        f"expect failed: trace-golden: [Errno 2] No such file or directory: '{missing}'\n"
        "expect failed: icd-1 never reached Denied (final state Authenticated)\n"
    )


@pytest.mark.parametrize(
    "state,code,err",
    [
        ("Authenticated", 2, "expect failed: icd-1 ends Denied, expected Authenticated\n"),
        ("Denied", 0, ""),
    ],
)
def test_ends_checks_the_state_a_run_leaves_its_agent_in(tmp_path, state, code, err):
    """A device that was accepted and then denied by an injected AccessDenied
    passes `reaches Authenticated`, but not `ends Authenticated`."""
    text = (SCENARIOS / "honest.scn").read_text().replace("trace-golden golden/honest.trace\n", "")
    text = text.replace("icd-1 ends Authenticated\n", f"icd-1 ends {state}\n")
    text += "[adversary]\ninject 11000101 to icd-1 at 5000 from map-1\n"
    scn = tmp_path / "denied.scn"
    scn.write_text(text)
    assert ("ends", "icd-1", state) in load_scenario(scn).expects
    proc = subprocess.run(
        [sys.executable, "-m", "wgiot.cli", "run", str(scn)], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (code, err)


@pytest.mark.parametrize("name", ["honest", "update", "replay", "challenge"])
def test_each_shipped_scenario_ends_with_its_device_authenticated(name):
    path = SCENARIOS / f"{name}.scn"
    assert ("ends", "icd-1", "Authenticated") in load_scenario(path).expects
    for seed in range(5):
        assert cli.main(["run", str(path), "--seed", str(seed)]) == 0


def test_non_utf8_golden_file_is_a_trace_mismatch(tmp_path):
    (tmp_path / "bad.trace").write_bytes(b"\xff\xfe")
    scn = tmp_path / "golden.scn"
    scn.write_text(MINIMAL + "[expect]\ntrace-golden bad.trace\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wgiot.cli", "run", str(scn)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "trace differs from golden file" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trace_flag_writes_serialized_trace(tmp_path):
    out = tmp_path / "honest.trace"
    assert cli.main(["run", str(SCENARIOS / "honest.scn"), "--trace", str(out)]) == 0
    golden = (SCENARIOS / "golden" / "honest.trace").read_text()
    assert out.read_text() == golden


def test_unwritable_trace_path_exits_one_without_traceback(tmp_path, capsys):
    out = tmp_path / "missing" / "run.trace"
    assert cli.main(["run", str(SCENARIOS / "honest.scn"), "--trace", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err


def test_max_time_flag_truncates_run(tmp_path):
    scn = tmp_path / "slow.scn"
    scn.write_text(
        MINIMAL + "[links]\nicd-1 map-1 delay=100\n"
        "[expect]\nframe-count AuthRequest == 0\n"
    )
    # the request would arrive at t=100; capping earlier keeps it undelivered
    assert cli.main(["run", str(scn), "--max-time", "50"]) == 0


def test_negative_max_time_flag_exits_one(capsys):
    assert cli.main(["run", str(SCENARIOS / "honest.scn"), "--max-time", "-5"]) == 1
    assert capsys.readouterr().err == "error: negative max_time -5\n"


def test_negative_seed_exits_one(capsys):
    assert cli.main(["run", str(SCENARIOS / "honest.scn"), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: negative seed -1\n"


# Runs the CLI module with every import of numpy failing.
NO_NUMPY_CLI = (
    "import runpy, sys\n"
    "sys.modules['numpy'] = None\n"
    "runpy.run_module('wgiot.cli', run_name='__main__')\n"
)


@pytest.mark.parametrize("name", ["honest", "update", "replay"])
def test_run_needs_no_numpy(tmp_path, name):
    scn = str(SCENARIOS / f"{name}.scn")
    blocked, normal = tmp_path / "blocked.trace", tmp_path / "normal.trace"
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_CLI, "run", scn, "--trace", str(blocked)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert cli.main(["run", scn, "--trace", str(normal)]) == 0
    assert blocked.read_text() == normal.read_text()


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
    assert out == crypto.generate_vectors(crypto.BACKENDS["hmac-sha256"])


def test_vectors_out_file_matches_committed_artifact(tmp_path):
    committed = SCENARIOS.parent / "vectors" / "hmac-sha256.txt"
    out = tmp_path / "v.txt"
    assert cli.main(["vectors", "--out", str(out)]) == 0
    assert out.read_text() == committed.read_text()


def test_vectors_unwritable_out_path_exits_one_without_traceback(tmp_path, capsys):
    out = tmp_path / "missing" / "vectors.txt"
    assert cli.main(["vectors", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == ""


def test_vectors_unknown_backend_exits_one(capsys):
    assert cli.main(["vectors", "--backend", "rot13"]) == 1
    assert "unknown backend" in capsys.readouterr().err
