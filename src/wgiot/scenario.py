"""Sectioned text format for simulation scenarios.

A scenario file declares the subscriber registry, link models, scheduled
events, an optional adversary script, and the expectations the CLI checks
after the run.  The format is line-oriented and diff-friendly; any unknown
section or malformed line fails at load time with its line number.
"""

from __future__ import annotations

from pathlib import Path

from . import crypto, wire
from .simnet import (
    CaptureMatching,
    CorruptBit,
    Inject,
    LinkModel,
    ReplayCaptured,
    RotateMpc,
    Scenario,
    ScenarioError,
    SendParameterUpdate,
    StartIcd,
    SubscriberSpec,
)

SCENARIO_HEADER = "wgiot-scenario v1"

_FRAME_COUNT_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
}


class _Line:
    def __init__(self, no: int, text: str):
        self.no = no
        self.text = text

    def fail(self, reason: str):
        raise ScenarioError(f"line {self.no}: {reason}")


def _parse_int(line: _Line, token: str) -> int:
    try:
        return int(token, 0)
    except ValueError:
        line.fail(f"expected integer, got {token!r}")


def _parse_uint(line: _Line, name: str, token: str, bits: int) -> int:
    value = _parse_int(line, token)
    if not 0 <= value < 1 << bits:
        line.fail(f"{name} {token} does not fit in {bits} bits")
    return value


def _parse_hex(line: _Line, token: str, nbytes: int) -> bytes:
    try:
        value = bytes.fromhex(token)
    except ValueError:
        line.fail(f"invalid hex {token!r}")
    if len(value) != nbytes:
        line.fail(f"expected {nbytes} hex bytes, got {len(value)}")
    return value


def _parse_probability(line: _Line, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        line.fail(f"expected probability, got {token!r}")
    if not 0.0 <= value <= 1.0:
        line.fail(f"probability {token!r} outside [0, 1]")
    return value


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(str(exc)) from exc
    return parse_scenario(text, base_dir=path.parent)


def parse_scenario(text: str, base_dir: Path | None = None) -> Scenario:
    base_dir = base_dir or Path(".")
    scenario = Scenario(subscribers=[])
    link_models: dict[str, LinkModel] = {}  # attribute text -> its model, for this file
    registry_lines: dict[int, int] = {}  # icd_in -> line that registered it

    def add_subscriber(line: _Line) -> None:
        sub = _parse_subscriber(line)
        first = registry_lines.setdefault(sub.icd_in, line.no)
        if first != line.no:
            line.fail(f"duplicate icd_in {sub.icd_in}, first registered on line {first}")
        scenario.subscribers.append(sub)

    def add_link(line: _Line) -> None:
        src, dst, model = _parse_link(line, link_models)
        scenario.links[(src, dst)] = model

    section_parsers = {
        "options": lambda line: _parse_option(scenario, line),
        "registry": add_subscriber,
        "links": add_link,
        "schedule": lambda line: scenario.schedule.append(_parse_schedule(line)),
        "adversary": lambda line: scenario.adversary.append(_parse_adversary(line)),
        "expect": lambda line: scenario.expects.append(_parse_expect(line, base_dir)),
    }
    parse_line = None
    saw_header = False

    for no, raw_line in enumerate(text.splitlines(), start=1):
        line = _Line(no, raw_line.strip())
        if not line.text or line.text.startswith("#"):
            continue
        if not saw_header:
            if line.text != SCENARIO_HEADER:
                line.fail(f"expected header {SCENARIO_HEADER!r}")
            saw_header = True
            continue
        if line.text.startswith("[") and line.text.endswith("]"):
            section = line.text[1:-1]
            parse_line = section_parsers.get(section)
            if parse_line is None:
                line.fail(f"unknown section [{section}]")
            continue
        if parse_line is None:
            line.fail("content before any section")
        parse_line(line)

    if not saw_header:
        raise ScenarioError("empty scenario file")
    if not any(isinstance(item, StartIcd) for item in scenario.schedule):
        for i in range(len(scenario.subscribers)):
            scenario.schedule.append(StartIcd(f"icd-{i + 1}", at=0))
    return scenario


def _parse_option(scenario: Scenario, line: _Line) -> None:
    if "=" not in line.text:
        line.fail("expected key = value")
    key, _, value = (t.strip() for t in line.text.partition("="))
    if key == "backend":
        if value not in crypto.BACKENDS:
            line.fail(f"unknown backend {value!r}")
        scenario.backend = value
    elif key == "max_time":
        scenario.max_time = _parse_int(line, value)
    elif key == "mpc_period":
        scenario.mpc_period = _parse_int(line, value)
    elif key == "wbrac_id":
        scenario.wbrac_id = _parse_uint(line, "wbrac_id", value, 64)
    else:
        line.fail(f"unknown option {key!r}")


def _parse_subscriber(line: _Line) -> SubscriberSpec:
    parts = line.text.split()
    if len(parts) != 6:
        line.fail(f"registry line needs 6 fields, got {len(parts)}")
    return SubscriberSpec(
        icd_in=_parse_uint(line, "icd_in", parts[0], 64),
        esn=_parse_uint(line, "esn", parts[1], 64),
        key=_parse_hex(line, parts[2], 32),
        sc_auth_k=_parse_hex(line, parts[3], 16),
        sd=_parse_hex(line, parts[4], 16),
        rmc=_parse_uint(line, "rmc", parts[5], 128),
    )


def _parse_link(line: _Line, models: dict[str, LinkModel]) -> tuple[str, str, LinkModel]:
    """<src> <dst> and the model for the rest of the line, parsed the first
    time that text appears in the file and shared after (LinkModel is frozen)."""
    parts = line.text.split(None, 2)
    if len(parts) < 2:
        line.fail("link line needs: <src> <dst> [delay=N] [drop=P] [dup=P]")
    attrs = parts[2] if len(parts) == 3 else ""
    model = models.get(attrs)
    if model is None:
        model = models[attrs] = _parse_link_model(line, attrs)
    return parts[0], parts[1], model


def _parse_link_model(line: _Line, attrs: str) -> LinkModel:
    kwargs = {}
    for token in attrs.split():
        if "=" not in token:
            line.fail(f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        if key == "delay":
            kwargs["delay_ms"] = _parse_int(line, value)
            if kwargs["delay_ms"] < 0:
                line.fail(f"negative delay {value!r}")
        elif key in ("drop", "dup"):
            kwargs[f"{key}_prob"] = _parse_probability(line, value)
        else:
            line.fail(f"unknown link attribute {key!r}")
    return LinkModel(**kwargs)


def _targets(token: str) -> tuple[str, ...]:
    return tuple(t for t in token.split(",") if t)


def _parse_schedule(line: _Line):
    parts = line.text.split()
    try:
        if parts[0] == "start" and parts[2] == "at":
            return StartIcd(parts[1], at=_parse_int(line, parts[3]))
        if parts[0] == "rotate" and parts[1] == "at" and parts[3] == "to":
            return RotateMpc(at=_parse_int(line, parts[2]), targets=_targets(parts[4]))
        if parts[0] == "param-update" and parts[1] == "at" and parts[3] == "to":
            return SendParameterUpdate(
                at=_parse_int(line, parts[2]), targets=_targets(parts[4])
            )
    except IndexError:
        pass
    line.fail(f"unrecognized schedule line {line.text!r}")


def _parse_adversary(line: _Line):
    parts = line.text.split()
    try:
        if parts[0] == "capture":
            return CaptureMatching(wire.tag_by_name(parts[1]))
        if parts[0] == "replay" and parts[2] == "at":
            index = _parse_int(line, parts[1])
            if index < 0:
                line.fail(f"negative replay index {index}")
            return ReplayCaptured(index=index, at=_parse_int(line, parts[3]))
        if parts[0] == "corrupt" and parts[2] == "bit":
            cls = wire.frame_by_name(parts[1])
            bit = _parse_int(line, parts[3])
            if not 0 <= bit < 8 * cls.SIZE:
                line.fail(f"bit {bit} outside the {8 * cls.SIZE}-bit payload of {cls.__name__}")
            return CorruptBit(cls.TAG, bit_index=bit)
        if parts[0] == "inject" and parts[2] == "to" and parts[4] == "at":
            frame = wire.decode(bytes.fromhex(parts[1]))
            src = parts[7] if len(parts) >= 8 and parts[6] == "from" else "adversary"
            return Inject(frame=frame, to=parts[3], at=_parse_int(line, parts[5]), src=src)
    except IndexError:
        pass
    except (wire.WireError, ValueError) as exc:
        line.fail(f"bad adversary line: {exc}")
    line.fail(f"unrecognized adversary line {line.text!r}")


def _parse_expect(line: _Line, base_dir: Path):
    parts = line.text.split()
    try:
        if len(parts) == 3 and parts[1] == "reaches":
            return ("reaches", parts[0], parts[2])
        if parts[0] == "frame-count" and parts[2] in _FRAME_COUNT_OPS:
            return ("frame-count", parts[1], parts[2], _parse_int(line, parts[3]))
        if parts[0] == "trace-golden":
            return ("trace-golden", base_dir / parts[1])
    except IndexError:
        pass
    line.fail(f"unrecognized expectation {line.text!r}")


def check_expects(scenario: Scenario, sim, trace) -> list[str]:
    """Evaluate the [expect] assertions; return a list of failure messages."""
    failures = []
    for expect in scenario.expects:
        kind = expect[0]
        if kind == "reaches":
            _, agent_id, target = expect
            agent = sim.agents.get(agent_id)
            if agent is None:
                failures.append(f"reaches: unknown agent {agent_id!r}")
            elif agent.state_name != target and not any(
                e.receiver == agent_id and e.note.endswith(f"-> {target}")
                for e in trace.entries
            ):
                failures.append(
                    f"{agent_id} never reached {target} "
                    f"(final state {agent.state_name})"
                )
        elif kind == "frame-count":
            _, tag, op, want = expect
            got = trace.frame_count(tag)
            if not _FRAME_COUNT_OPS[op](got, want):
                failures.append(f"frame-count {tag}: got {got}, wanted {op} {want}")
        elif kind == "trace-golden":
            _, path = expect
            try:
                golden = Path(path).read_text()
            except OSError as exc:
                failures.append(f"trace-golden: {exc}")
                continue
            if trace.serialize() != golden:
                failures.append(f"trace differs from golden file {path}")
    return failures
