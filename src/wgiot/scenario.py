"""Sectioned text format for simulation scenarios.

A scenario file declares the subscriber registry, link models, scheduled
events, an optional adversary script, and the expectations the CLI checks
after the run.  The format is line-oriented and diff-friendly.  The parser
turns tokens into values and fails on text it cannot read: an unknown
section, option or keyword, a malformed line, tokens after its end, a second
line for the same link or a link attribute given twice.  Every rule on the
values themselves (ranges, lengths, unique `icd_in`, agent and frame names)
is `simnet.scenario_faults`, the check `Simulator` applies to every
scenario; the parser runs it once the whole file is read, since sections
may come in any order, and reports the lowest line holding a fault.  Either
way a bad file fails at load time with its line number.
"""

from __future__ import annotations

import sys
from pathlib import Path

from . import wire
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
    device_ids,
    scenario_faults,
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

_OPTIONS = ("max_time", "mpc_period", "wbrac_id")  # each an int field of Scenario

_LINK_FIELDS = {"delay": "delay_ms", "drop": "drop_prob", "dup": "dup_prob"}

_BROADCASTS = {"rotate": RotateMpc, "param-update": SendParameterUpdate}


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


def _parse_hex(line: _Line, token: str) -> bytes:
    try:
        return bytes.fromhex(token)
    except ValueError:
        line.fail(f"invalid hex {token!r}")


def _parse_probability(line: _Line, token: str) -> float:
    try:
        return float(token)
    except ValueError:
        line.fail(f"expected probability, got {token!r}")


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(str(exc)) from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines before the bad byte decode; a character after them
        # falls on the bad byte's line, numbered as parse_scenario numbers it
        before = raw[: exc.start].decode("utf-8")
        no = len((before + "x").splitlines())
        raise ScenarioError(f"line {no}: not UTF-8: {exc.reason}") from exc
    return parse_scenario(text, base_dir=path.parent)


def parse_scenario(text: str, base_dir: Path | None = None) -> Scenario:
    base_dir = base_dir or Path(".")
    scenario = Scenario(subscribers=[])
    link_models: dict[str, LinkModel] = {}  # attribute text -> its model, for this file
    registry_lines: list[int] = []  # the line of each registry row, in order
    # each key scenario_faults names -> its line: an option's field name ->
    # the line that set its value; a device's agent name -> its registry row;
    # a link's (src, dst) key, or a parsed schedule, adversary or expect
    # item -> the first line that declared it
    lines: dict = {}

    def set_option(line: _Line) -> None:
        name, value = _parse_option(line)
        setattr(scenario, name, value)
        lines[name] = line.no

    def add_subscriber(line: _Line) -> None:
        scenario.subscribers.append(_parse_subscriber(line))
        registry_lines.append(line.no)

    def add_link(line: _Line) -> None:
        src, dst, model = _parse_link(line, link_models)
        pair = (src, dst)  # one key object for both dicts
        first = lines.setdefault(pair, line.no)
        if first != line.no:
            line.fail(f"duplicate link {src} -> {dst}, first declared on line {first}")
        scenario.links[pair] = model

    def adder(items: list, parse):
        def add(line: _Line) -> None:
            item = parse(line)
            items.append(item)
            lines.setdefault(item, line.no)

        return add

    section_parsers = {
        "options": set_option,
        "registry": add_subscriber,
        "links": add_link,
        "schedule": adder(scenario.schedule, _parse_schedule),
        "adversary": adder(scenario.adversary, _parse_adversary),
        "expect": adder(scenario.expects, lambda line: _parse_expect(line, base_dir)),
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
    lines.update(zip(device_ids(scenario), registry_lines))
    faults = [(lines[key], reason) for key, reason in scenario_faults(scenario)]
    if faults:
        raise ScenarioError("line %d: %s" % min(faults, key=lambda fault: fault[0]))
    if not any(isinstance(item, StartIcd) for item in scenario.schedule):
        scenario.schedule += [StartIcd(a, at=0) for a in device_ids(scenario)]
    return scenario


def _parse_option(line: _Line) -> tuple[str, int]:
    if "=" not in line.text:
        line.fail("expected key = value")
    key, _, value = (t.strip() for t in line.text.partition("="))
    if key not in _OPTIONS:
        line.fail(f"unknown option {key!r}")
    return key, _parse_int(line, value)


def _parse_subscriber(line: _Line) -> SubscriberSpec:
    parts = line.text.split()
    if len(parts) != 6:
        line.fail(f"registry line needs 6 fields, got {len(parts)}")
    return SubscriberSpec(
        icd_in=_parse_int(line, parts[0]),
        esn=_parse_int(line, parts[1]),
        key=_parse_hex(line, parts[2]),
        sc_auth_k=_parse_hex(line, parts[3]),
        sd=_parse_hex(line, parts[4]),
        rmc=_parse_int(line, parts[5]),
    )


def _parse_link(line: _Line, models: dict[str, LinkModel]) -> tuple[str, str, LinkModel]:
    """<src> <dst>, interned, and the model for the rest of the line, parsed
    the first time that text appears in the file and shared after (LinkModel
    is frozen)."""
    parts = line.text.split(None, 2)
    if len(parts) < 2:
        line.fail("link line needs: <src> <dst> [delay=N] [drop=P] [dup=P]")
    attrs = parts[2] if len(parts) == 3 else ""
    model = models.get(attrs)
    if model is None:
        model = models[attrs] = _parse_link_model(line, attrs)
    return sys.intern(parts[0]), sys.intern(parts[1]), model


def _parse_link_model(line: _Line, attrs: str) -> LinkModel:
    kwargs = {}
    for token in attrs.split():
        if "=" not in token:
            line.fail(f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        name = _LINK_FIELDS.get(key)
        if name is None:
            line.fail(f"unknown link attribute {key!r}")
        if name in kwargs:
            line.fail(f"repeated link attribute {key!r}")
        if key == "delay":
            kwargs[name] = _parse_int(line, value)
        else:
            kwargs[name] = _parse_probability(line, value)
    return LinkModel(**kwargs)


def _parse_schedule(line: _Line):
    parts = line.text.split()
    if len(parts) == 4 and parts[0] == "start" and parts[2] == "at":
        return StartIcd(sys.intern(parts[1]), at=_parse_int(line, parts[3]))
    broadcast = _BROADCASTS.get(parts[0])
    if broadcast and len(parts) == 5 and parts[1] == "at" and parts[3] == "to":
        targets = tuple(sys.intern(t) for t in parts[4].split(",") if t)
        return broadcast(at=_parse_int(line, parts[2]), targets=targets)
    line.fail(f"unrecognized schedule line {line.text!r}")


def _parse_adversary(line: _Line):
    parts = line.text.split()
    n = len(parts)
    try:
        if n == 2 and parts[0] == "capture":
            return CaptureMatching(wire.tag_by_name(parts[1]))
        if n == 4 and parts[0] == "replay" and parts[2] == "at":
            return ReplayCaptured(index=_parse_int(line, parts[1]), at=_parse_int(line, parts[3]))
        if n == 4 and parts[0] == "corrupt" and parts[2] == "bit":
            return CorruptBit(wire.tag_by_name(parts[1]), bit_index=_parse_int(line, parts[3]))
        if (
            parts[0] == "inject"
            and (n == 6 or (n == 8 and parts[6] == "from"))
            and parts[2] == "to"
            and parts[4] == "at"
        ):
            frame = wire.decode(bytes.fromhex(parts[1]))
            src = parts[7] if n == 8 else "adversary"
            return Inject(frame=frame, to=parts[3], at=_parse_int(line, parts[5]), src=src)
    except (wire.WireError, ValueError) as exc:
        line.fail(f"bad adversary line: {exc}")
    line.fail(f"unrecognized adversary line {line.text!r}")


def _parse_expect(line: _Line, base_dir: Path):
    parts = line.text.split()
    n = len(parts)
    if n == 3 and parts[1] == "reaches":
        return ("reaches", parts[0], parts[2])
    if n == 4 and parts[0] == "frame-count" and parts[2] in _FRAME_COUNT_OPS:
        return ("frame-count", parts[1], parts[2], _parse_int(line, parts[3]))
    if n == 2 and parts[0] == "trace-golden":
        return ("trace-golden", base_dir / parts[1])
    line.fail(f"unrecognized expectation {line.text!r}")


def check_expects(scenario: Scenario, sim, trace) -> list[str]:
    """Evaluate the [expect] assertions; return a list of failure messages."""
    failures = []
    for expect in scenario.expects:
        kind = expect[0]
        if kind == "reaches":
            _, agent_id, target = expect
            agent = sim.agents[agent_id]
            reached = f"-> {target}"
            if agent.state_name != target and not any(
                receiver == agent_id and note.endswith(reached)
                for receiver, note in zip(trace.receivers, trace.notes)
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
                golden = Path(path).read_bytes()
            except OSError as exc:
                failures.append(f"trace-golden: {exc}")
                continue
            if trace.serialize().encode() != golden:
                failures.append(f"trace differs from golden file {path}")
    return failures
