"""Sectioned text format for simulation scenarios.

A scenario file declares the subscriber registry, link models, scheduled
events, an optional adversary script, and the expectations the CLI checks
after the run.  The format is line-oriented and diff-friendly.  The parser
turns tokens into values and fails on text it cannot read: an unknown
section, option or keyword, a malformed line, tokens after its end, a second
line for the same link or a link attribute given twice.  Every rule on the
values themselves (ranges, lengths, unique `icd_in`, agent and frame names)
is `simnet.scenario_faults`, which every `Scenario` runs once, when it is
built.  The parser keeps the rows, links, items and options in plain lists
and dicts and builds the `Scenario` once the whole file is read, since
sections may come in any order; it maps each fault the build raises to its
line and reports the lowest one, so a bad file fails at load time with its
line number.  The scenario it returns is frozen and cannot change in place,
and a new one, such as the CLI's `--max-time` makes with
`dataclasses.replace`, is checked as it is built.

The file is read in one pass in file order, so the first line it cannot
read fails first.  Lines end at `\n`, `\r\n` or `\r`, as universal
newlines reads them; a form feed or other separator inside a line is
whitespace.  A line that parses costs only its split and its value
conversions: the current section's handler takes the line's number and
stripped text, and no object is made for the line.  A registry row
converts its six fields in one go; only a row that fails is parsed again
field by field, to name the field at fault.  The line of each value is
kept in a plain list parallel to the list of rows, links or items (an
option keeps the line that set it last); the map from the keys
`scenario_faults` names to their lines is built only when it names one.
Equal texts are parsed once per file: each distinct link attribute text
gives one `LinkModel`, and each distinct `rotate`/`param-update` target text
one tuple of names, which every broadcast naming that text shares (a fleet's
broadcasts each name the whole fleet), and which `scenario_faults` then
checks once.  The agent names of links, starts and broadcast targets are
interned, so a fleet holds one string per name.
"""

from __future__ import annotations

from pathlib import Path
from sys import intern

from . import wire
from .simnet import (
    FRAME_COUNT_OPS,
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
)

SCENARIO_HEADER = "wgiot-scenario v1"

_OPTIONS = ("max_time", "mpc_period")  # each an int field of Scenario

_LINK_FIELDS = {"delay": "delay_ms", "drop": "drop_prob", "dup": "dup_prob"}

_BROADCASTS = {"rotate": RotateMpc, "param-update": SendParameterUpdate}


def _fail(no: int, reason: str):
    raise ScenarioError(f"line {no}: {reason}")


def _parse_int(no: int, token: str) -> int:
    try:
        return int(token, 0)
    except ValueError:
        _fail(no, f"expected integer, got {token!r}")


def _parse_hex(no: int, token: str) -> bytes:
    try:
        return bytes.fromhex(token)
    except ValueError:
        _fail(no, f"invalid hex {token!r}")


def _parse_probability(no: int, token: str) -> float:
    try:
        return float(token)
    except ValueError:
        _fail(no, f"expected probability, got {token!r}")


def _split_lines(text: str) -> list[str]:
    """`text` cut at each `\\n`, `\\r\\n` or `\\r`, as universal newlines cuts
    it; `str.splitlines` also cuts at form feeds and other separators an
    editor shows inside a line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(str(exc)) from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines before the bad byte decode; the bad byte is on the last
        # of them, numbered as parse_scenario numbers it
        no = len(_split_lines(raw[: exc.start].decode("utf-8")))
        raise ScenarioError(f"line {no}: not UTF-8: {exc.reason}") from exc
    return parse_scenario(text, base_dir=path.parent)


def parse_scenario(text: str, base_dir: Path | None = None) -> Scenario:
    base_dir = base_dir or Path(".")
    options: dict[str, int] = {}  # an option's field name -> its value
    links: dict[tuple[str, str], LinkModel] = {}
    subscribers, schedule, adversary, expects = [], [], [], []
    link_models: dict[str, LinkModel] = {}  # attribute text -> its model, for this file
    target_lists: dict[str, tuple[str, ...]] = {}  # target text -> its tuple, for this file
    # where each value was set, read only to place a fault: an option's field
    # name -> the line that set it last, and the line of each registry row,
    # link and item in a list parallel to the one that holds it
    option_lines: dict[str, int] = {}
    registry_lines: list[int] = []
    link_lines: list[int] = []
    schedule_lines: list[int] = []
    adversary_lines: list[int] = []
    expect_lines: list[int] = []

    def set_option(no: int, text: str) -> None:
        name, value = _parse_option(no, text)
        options[name] = value
        option_lines[name] = no

    def add_subscriber(no: int, text: str) -> None:
        parts = text.split()
        try:
            icd_in, esn, key, k, sd, rmc = parts
            row = SubscriberSpec(
                int(icd_in, 0),
                int(esn, 0),
                bytes.fromhex(key),
                bytes.fromhex(k),
                bytes.fromhex(sd),
                int(rmc, 0),
            )
        except ValueError:  # too few or too many fields, or one that does not convert
            row = _parse_subscriber(no, parts)  # raises, naming the first fault
        subscribers.append(row)
        registry_lines.append(no)

    def add_link(no: int, text: str) -> None:
        parts = text.split(None, 2)
        if len(parts) < 2:
            _fail(no, "link line needs: <src> <dst> [delay=N] [drop=P] [dup=P]")
        attrs = parts[2] if len(parts) == 3 else ""
        model = link_models.get(attrs)
        if model is None:  # parsed the first time its text appears, shared after (frozen)
            model = link_models[attrs] = _parse_link_model(no, attrs)
        pair = intern(parts[0]), intern(parts[1])
        if pair in links:
            src, dst = pair
            first = link_lines[list(links).index(pair)]
            _fail(no, f"duplicate link {src} -> {dst}, first declared on line {first}")
        links[pair] = model
        link_lines.append(no)

    def add_schedule(no: int, text: str) -> None:
        schedule.append(_parse_schedule(no, text, target_lists))
        schedule_lines.append(no)

    def add_adversary(no: int, text: str) -> None:
        adversary.append(_parse_adversary(no, text))
        adversary_lines.append(no)

    def add_expect(no: int, text: str) -> None:
        expects.append(_parse_expect(no, text, base_dir))
        expect_lines.append(no)

    sections = {
        "options": set_option,
        "registry": add_subscriber,
        "links": add_link,
        "schedule": add_schedule,
        "adversary": add_adversary,
        "expect": add_expect,
    }

    numbered = enumerate(_split_lines(text), start=1)
    for no, line in numbered:
        line = line.strip()
        if line and line[0] != "#":
            if line != SCENARIO_HEADER:
                _fail(no, f"expected header {SCENARIO_HEADER!r}")
            break
    else:
        raise ScenarioError("empty scenario file")
    add = _before_any_section
    for no, line in numbered:
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            add = sections.get(line[1:-1])
            if add is None:
                _fail(no, f"unknown section {line}")
            continue
        add(no, line)

    if not any(isinstance(item, StartIcd) for item in schedule):
        schedule += [StartIcd(a, at=0) for a in device_ids(len(subscribers))]
    try:
        return Scenario(subscribers, links, schedule, adversary, expects, **options)
    except ScenarioError as exc:
        faults = exc.faults
    # each key the scenario's faults name -> its line; an item given twice
    # maps to its first line
    line_of = dict(option_lines)
    line_of.update(zip(device_ids(len(subscribers)), registry_lines))
    line_of.update(zip(links, link_lines))
    for items, numbers in (
        (schedule, schedule_lines),
        (adversary, adversary_lines),
        (expects, expect_lines),
    ):
        for item, no in zip(items, numbers):
            line_of.setdefault(item, no)
    no, reason = min(((line_of[key], reason) for key, reason in faults), key=lambda f: f[0])
    _fail(no, reason)


def _before_any_section(no: int, text: str) -> None:
    _fail(no, "content before any section")


def _parse_option(no: int, text: str) -> tuple[str, int]:
    if "=" not in text:
        _fail(no, "expected key = value")
    key, _, value = (t.strip() for t in text.partition("="))
    if key not in _OPTIONS:
        _fail(no, f"unknown option {key!r}")
    return key, _parse_int(no, value)


def _parse_subscriber(no: int, parts: list[str]) -> SubscriberSpec:
    """The registry row of `parts`, each field converted on its own so that
    a fault names its field; `parse_scenario` converts a row in one go and
    comes here only when that fails."""
    if len(parts) != 6:
        _fail(no, f"registry line needs 6 fields, got {len(parts)}")
    return SubscriberSpec(
        icd_in=_parse_int(no, parts[0]),
        esn=_parse_int(no, parts[1]),
        key=_parse_hex(no, parts[2]),
        sc_auth_k=_parse_hex(no, parts[3]),
        sd=_parse_hex(no, parts[4]),
        rmc=_parse_int(no, parts[5]),
    )


def _parse_link_model(no: int, attrs: str) -> LinkModel:
    kwargs = {}
    for token in attrs.split():
        if "=" not in token:
            _fail(no, f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        name = _LINK_FIELDS.get(key)
        if name is None:
            _fail(no, f"unknown link attribute {key!r}")
        if name in kwargs:
            _fail(no, f"repeated link attribute {key!r}")
        if key == "delay":
            kwargs[name] = _parse_int(no, value)
        else:
            kwargs[name] = _parse_probability(no, value)
    return LinkModel(**kwargs)


def _parse_schedule(no: int, text: str, target_lists: dict[str, tuple[str, ...]]):
    parts = text.split()
    if len(parts) == 4 and parts[0] == "start" and parts[2] == "at":
        return StartIcd(intern(parts[1]), _parse_int(no, parts[3]))
    broadcast = _BROADCASTS.get(parts[0])
    if broadcast and len(parts) == 5 and parts[1] == "at" and parts[3] == "to":
        targets = target_lists.get(parts[4])
        if targets is None:  # split the first time its text appears, shared after
            targets = tuple(map(intern, filter(None, parts[4].split(","))))
            target_lists[parts[4]] = targets
        return broadcast(at=_parse_int(no, parts[2]), targets=targets)
    _fail(no, f"unrecognized schedule line {text!r}")


def _parse_adversary(no: int, text: str):
    parts = text.split()
    n = len(parts)
    try:
        if n == 2 and parts[0] == "capture":
            return CaptureMatching(wire.tag_by_name(parts[1]))
        if n == 4 and parts[0] == "replay" and parts[2] == "at":
            return ReplayCaptured(index=_parse_int(no, parts[1]), at=_parse_int(no, parts[3]))
        if n == 4 and parts[0] == "corrupt" and parts[2] == "bit":
            return CorruptBit(wire.tag_by_name(parts[1]), bit_index=_parse_int(no, parts[3]))
        if (
            parts[0] == "inject"
            and (n == 6 or (n == 8 and parts[6] == "from"))
            and parts[2] == "to"
            and parts[4] == "at"
        ):
            frame = wire.decode(bytes.fromhex(parts[1]))
            sender = {"src": parts[7]} if n == 8 else {}  # else Inject's default
            return Inject(frame=frame, to=parts[3], at=_parse_int(no, parts[5]), **sender)
    except (wire.WireError, ValueError) as exc:
        _fail(no, f"bad adversary line: {exc}")
    _fail(no, f"unrecognized adversary line {text!r}")


def _parse_expect(no: int, text: str, base_dir: Path):
    parts = text.split()
    n = len(parts)
    if n == 3 and parts[1] in ("reaches", "ends"):
        return (parts[1], parts[0], parts[2])
    if n == 4 and parts[0] == "frame-count" and parts[2] in FRAME_COUNT_OPS:
        return ("frame-count", parts[1], parts[2], _parse_int(no, parts[3]))
    if n == 2 and parts[0] == "trace-golden":
        return ("trace-golden", base_dir / parts[1])
    _fail(no, f"unrecognized expectation {text!r}")


def check_expects(sim) -> list[str]:
    """Evaluate the [expect] assertions of `sim`'s scenario against its run
    so far; return a list of failure messages.  `reaches` holds once the
    agent was ever in the state, `ends` only if the run leaves it there."""
    trace = sim.trace
    failures = []
    for expect in sim.scenario.expects:
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
        elif kind == "ends":
            _, agent_id, target = expect
            final = sim.agents[agent_id].state_name
            if final != target:
                failures.append(f"{agent_id} ends {final}, expected {target}")
        elif kind == "frame-count":
            _, tag, op, want = expect
            got = trace.frame_count(tag)
            if not FRAME_COUNT_OPS[op](got, want):
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
