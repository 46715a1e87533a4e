"""Deterministic discrete-event harness for the wg-IoT protocol.

One WBRAC, one access point (MAP), and any number of devices exchange
frames over links with configurable delay/drop/duplication.  Virtual time is
integer milliseconds; events at equal times process in insertion order, so a
(scenario, seed) pair fully determines the trace.  An adversary can capture,
replay, inject, and corrupt frames in flight.  A `Scenario`, built in code
or parsed, is a frozen value checked when it is built by `scenario_faults`,
the one statement of the rules its values must meet, so `Simulator` checks
only its seed.  All PRF work uses the reference backend,
`crypto.DEFAULT_BACKEND`.

Pending events sit in a calendar: a heap of the distinct pending times
(`Simulator._heap`) and, for each time, a list of its events in push order.
An event is a frame copy, a burst, a device's timer tick or a scheduled
item (a start, a broadcast, a replay, an injection), and its type alone
says which: a copy is a `list`, a burst the only `tuple`, a tick its
device's name, the only `str`, and a scheduled item one of the scenario's
values (`scenario_faults` refuses a schedule item of any other type, a
tuple included).  `step()` takes exactly one event, the next one in the
earliest time's list; a time leaves the heap when its list is used up.  No
event is pushed before `now` (`_open`, the one place a running simulator
adds a time, raises `ValueError`), so an event pushed at `now`, such as a
reply sent with no delay while a broadcast is delivered, joins the end of
the current list and runs after every event already pending at that time.
A queued copy of a frame is the list [src, dst, dropped, note, frame, raw],
where raw is the frame's whole encoding, header included.  A list is the
cheapest record to build once per copy (a NamedTuple is built from a
temporary tuple), and a plain tuple would cost memory instead: CPython's
free list keeps up to 2,000 dead tuples of each small size, so the 6-tuples
of a broadcast would stay allocated after their delivery.

A burst is one event that delivers, in one `step()`, the copies of one
broadcast that arrive at one time, in target order: the plain tuple
(targets, frame, raw) of their targets, a tuple, the broadcast's frame and
its raw bytes.  A broadcast is burst whole or not at all: when no WBRAC ->
target link draws (drop and dup probability 0) and no adversary hook looks
at its tag, it queues one burst per arrival delay, and otherwise every copy
goes through `_transmit`, in target order.  The bursts deliver what the
copies would have, in the same order: a burst's copies would have been
consecutive events at its time, and what their delivery pushes at `now`
runs after the last of them either way.  The bursts depend only on the
target tuple and the WBRAC's links, which a scenario cannot change, so
`Simulator._plan` works them out once per tuple, and every burst of one
group of the plan holds that group's one tuple of targets.

A frame reaches its receiver as it was sent: each encode is paired with its
frame, and every copy on a link (all targets of a broadcast, a duplicate)
shares that pair; frames are frozen.  The bytes that `wire.encode`
returned are the only bytes object a sent frame has: its queued copies,
its burst, a capture of it and its trace lines all hold that one object,
and the trace cuts the payload from it only when it is read.  `wire.encode`
runs once per send, per broadcast and per injection.  Bytes the adversary
makes are decoded where it makes them, so every queued copy holds a frame:
a corrupted copy right after its bit is flipped (the bit lies inside the
payload, whose every value decodes), and a replay when it is scheduled,
from the bytes captured before any corruption, which the replayed copy
holds.  An injection queues its own frame and its encoding.  Nothing is
decoded at delivery.

What the simulator keeps per device, frame or trace line is shared where it
can be, as a memory saving that no result depends on; each agent's module
says what the agent itself shares.  One table, `Simulator.agents`, maps each
agent name to its agent; `Simulator.icds` is a read-only view of its
devices, not a second table.  The trace is held as columns, an array of
4-byte times and one list each of senders, receivers, encoded frames and
notes, so a line is four bytes and four references and no object of its own;
a frame line's tag is read from its frame's header byte, and only a line
without a frame keeps its tag, in a table by line number (`Trace.entries`
builds a list of `TraceEntry` tuples only when it is asked for); the copies
of a broadcast share one encoded frame, and every frame without fields (an
`AuthAccept`, a `ChallengeAck`, a `ParameterUpdateOrder`) is one shared frame
with one encoding.  The simulator shares every note it writes through one
table, `Simulator._notes`, which holds one string per distinct note: a
delivery's is composed once per (copy note, agent note, agent state) and kept
under those parts, and every other note (of a dropped or sunk copy, a tick, a
skipped start or rotation, a replay with nothing captured) under its text;
`Trace.add` appends the note it is given.  Device names are interned
(`device_ids`), so a fleet holds one string per name.  A device's SC_AUTH_K
and SD are its registry row's own `bytes`, one object each that the row, the
WBRAC's record (whose `provisioned_sd` keeps the SD after an update moves
`sd`) and the device's config share; the row's 32-byte WGIE key is
checked and kept in the row, and no agent holds it.  A device's RMC is its
row's `rmc` packed into 16 bytes once, one object that the device's config
and the access point's `MapRecord` share, as do all rows with an equal
`rmc`.  A device's AAC is shared the same way: the WBRAC derives it once,
in `map_expectations`, and the device's config holds the object that the
`MapRecord` holds as its expected AAC, so a device whose SD never changes
derives no AAC of its own.  That AAC is the one PRF call set-up makes per
device, and set-up draws nothing: the access point's unique-challenge pair
is made when it first challenges a device (see access_point.py), and most
devices never get a challenge.  The pair's WMAP is the device's word of the
rng stream all the same, which set-up jumps past, one word per device, in
one `SimRng.advance` (see rng.py and wbrac.py).  The scenario values (link
models, registry rows, scheduled and adversary items) and `Scenario` itself
are frozen values built through `wire.value`; they and `Trace` are slotted,
with no per-instance dict.
The adversary's capture and corrupt hooks run on the send path only for
frames of an armed tag.
"""

from __future__ import annotations

import functools
import heapq
import operator
import os
import sys
from array import array
from collections.abc import Mapping
from itertools import islice
from typing import NamedTuple

from . import crypto, wire
from .access_point import MapAgent
from .agent import MAP, WBRAC
from .icd import STATE_NAMES, IcdAgent, IcdConfig
from .rng import SimRng
from .wbrac import DEFAULT_MPC_PERIOD_MS, TooEarly, WbracService
from .wire import value

DEFAULT_MAX_TIME_MS = 60_000
ADVERSARY = "adversary"  # the sender of an injection and of a no-op replay's line


class ScenarioError(Exception):
    """A scenario that cannot be read or built; `faults` holds each (key,
    reason) that `scenario_faults` found, the first reason being the message."""

    def __init__(self, message: str, faults: tuple = ()):
        super().__init__(message)
        self.faults = faults


class NoEvents(Exception):
    pass


# ---------------------------------------------------------------------------
# Scenario description


@value
class LinkModel:
    delay_ms: int = 0
    drop_prob: float = 0.0
    dup_prob: float = 0.0


NO_IMPAIRMENT = LinkModel()  # a link the scenario does not list


@value
class SubscriberSpec:
    """One registry row; the device agent is named icd-<position> (1-based)."""

    icd_in: int
    esn: int
    key: bytes  # 32-byte WGIE key
    sc_auth_k: bytes  # 16 bytes
    sd: bytes  # 16 bytes
    rmc: int = 0


@value
class StartIcd:
    agent_id: str
    at: int = 0


@value
class RotateMpc:
    at: int
    targets: tuple[str, ...]  # agents receiving the broadcast


@value
class SendParameterUpdate:
    """Broadcast a parameter update order, bumping RMC at the targets."""

    at: int
    targets: tuple[str, ...]


# Adversary actions.  Capture and corrupt arm passive hooks on the send path;
# replay and inject are scheduled events.


@value
class CaptureMatching:
    tag: int


@value
class ReplayCaptured:
    index: int
    at: int


@value
class Inject:
    frame: wire.WireMessage
    to: str
    at: int
    src: str = ADVERSARY


@value
class CorruptBit:
    tag: int
    bit_index: int  # bit offset into the payload, MSB-first


class ReadOnlyLinks(dict):
    """A scenario's links: a `dict` that refuses every change in place, so
    that `Simulator._transmit` still looks a link up with the dict's own C
    lookup.  It hashes by its items, which cannot change.  `copy.copy`,
    `copy.deepcopy` and pickle give a `ReadOnlyLinks` too; its `copy()`
    method, `dict`'s, a plain `dict`."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a scenario's links are read-only; dataclasses.replace makes new ones")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return ReadOnlyLinks, (dict(self),)


@value
class Scenario:
    """A run's input, checked when it is built, by `dataclasses.replace` too:
    its sequences become tuples and `links` a `ReadOnlyLinks`, so nothing in
    it can change, and any fault `scenario_faults` finds raises ScenarioError."""

    subscribers: tuple[SubscriberSpec, ...]
    links: ReadOnlyLinks = ReadOnlyLinks()  # (src, dst) -> LinkModel
    schedule: tuple = ()
    adversary: tuple = ()
    expects: tuple = ()
    max_time: int = DEFAULT_MAX_TIME_MS
    mpc_period: int = DEFAULT_MPC_PERIOD_MS

    def __post_init__(self):
        for name in ("subscribers", "schedule", "adversary", "expects"):
            items = getattr(self, name)
            if type(items) is not tuple:
                if not isinstance(items, (list, tuple)):
                    reason = f"{name} {items!r} is not a list or tuple"
                    raise ScenarioError(reason, ((name, reason),))
                object.__setattr__(self, name, tuple(items))
        if not isinstance(self.links, ReadOnlyLinks):
            if not isinstance(self.links, Mapping):
                reason = f"links {self.links!r} is not a mapping"
                raise ScenarioError(reason, (("links", reason),))
            object.__setattr__(self, "links", ReadOnlyLinks(self.links))
        faults = tuple(scenario_faults(self))
        if faults:
            raise ScenarioError(faults[0][1], faults)


@functools.lru_cache(maxsize=8)
def device_ids(count: int) -> tuple[str, ...]:
    """The agent names of a registry of `count` rows, in registry order,
    interned; built once per registry size."""
    return tuple(sys.intern(f"icd-{i}") for i in range(1, count + 1))


_PAYLOAD_BITS = {cls.TAG: 8 * cls.SIZE for cls in wire.MESSAGE_TYPES}
_FRAME_NAMES = {cls.__name__ for cls in wire.MESSAGE_TYPES}
# a header byte -> the name of its frame, the tag of a frame's trace lines
_TAG_NAMES = tuple(wire.tag_name(tag) for tag in range(256))

# A `frame-count` expectation's operator -> the test of (got, wanted).
FRAME_COUNT_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
}

# Each expectation kind -> the length of its tuple: ("reaches", agent,
# state), ("ends", agent, state), ("frame-count", frame, operator, count)
# and ("trace-golden", path).
_EXPECT_LENGTHS = {"reaches": 3, "ends": 3, "frame-count": 4, "trace-golden": 2}


def scenario_faults(sc: Scenario):
    """Yield (key, reason) for every value of `sc` that breaks a rule; this
    is the only statement of those rules.  The key says where the value was
    set: an option by its field name, a registry row by its device's agent
    name, a link by its (src, dst) pair, any other item by itself.

    The rules: a registry row is a `SubscriberSpec`, a link's key a
    (src, dst) pair and its model a `LinkModel`, and an adversary item a
    capture, corrupt, replay or injection; every option, a row's `icd_in`,
    `esn` and `rmc`, a link's delay, every scheduled time, a replay index, a
    capture or corrupt tag and a corrupted bit are `int`s (not `bool`s);
    `max_time`, `mpc_period`, a link's delay and every scheduled time are
    non-negative; a row's `icd_in` and `esn` fit in 64 bits and its `rmc` in
    128; a row's key, k and sd are `bytes` of their lengths and no two rows
    share an `icd_in`; drop and dup probabilities are `int`s or `float`s in
    [0, 1]; a start's device, a broadcast's targets, an injection's target
    and sender and a `reaches` or `ends` agent are `str`s, the targets in a
    tuple; a link endpoint, a broadcast or injection target and a `reaches`
    or `ends` agent name an agent, a start names a device and a broadcast
    has a target; a `reaches` or `ends` state is a device state for a device
    and `-` for the others; a replay index is non-negative, an injected
    frame is a `wire.WireMessage` that encodes, a capture or corrupt tag
    names a frame and a corrupted bit lies inside its frame's payload; an
    expectation is a tuple of a known kind and that kind's length, a
    `frame-count` names a frame by its `str` name, its operator is a key of
    `FRAME_COUNT_OPS` and its count an `int`, and a `trace-golden` path is a
    `str` or path object.  A link model that many links share is checked
    once, at the first of them, and so is a target tuple that many
    broadcasts share (the parser keeps one per distinct target text); equal
    but distinct tuples are each checked."""
    for name in ("max_time", "mpc_period"):
        value = getattr(sc, name)
        if type(value) is not int or value < 0:
            yield name, _int_fault(name, value)
    names = device_ids(len(sc.subscribers))
    first_with = {}  # icd_in -> the device registered with it first
    for device, sub in zip(names, sc.subscribers):
        if not isinstance(sub, SubscriberSpec):
            yield device, f"registry row {sub!r} is not a SubscriberSpec"
            continue
        # spelled out rather than looped over a table: a fleet has thousands of rows
        if type(sub.icd_in) is not int or not 0 <= sub.icd_in < 1 << 64:
            yield device, _int_fault("icd_in", sub.icd_in, 64)
        if type(sub.esn) is not int or not 0 <= sub.esn < 1 << 64:
            yield device, _int_fault("esn", sub.esn, 64)
        if type(sub.rmc) is not int or not 0 <= sub.rmc < 1 << 128:
            yield device, _int_fault("rmc", sub.rmc, 128)
        if not isinstance(sub.key, bytes) or len(sub.key) != 32:
            yield device, _bytes_fault("key", sub.key, 32)
        if not isinstance(sub.sc_auth_k, bytes) or len(sub.sc_auth_k) != 16:
            yield device, _bytes_fault("sc_auth_k", sub.sc_auth_k, 16)
        if not isinstance(sub.sd, bytes) or len(sub.sd) != 16:
            yield device, _bytes_fault("sd", sub.sd, 16)
        if type(sub.icd_in) is not int:  # a fault already, and maybe unhashable
            continue
        first = first_with.setdefault(sub.icd_in, device)
        if first != device:
            yield device, f"duplicate icd_in {sub.icd_in}, first registered by {first}"
    devices = set(names)
    agents = devices | {WBRAC, MAP}
    checked = set()  # the id of each link model already checked
    for pair, link in sc.links.items():
        if type(pair) is not tuple or len(pair) != 2:
            yield pair, f"link {pair!r} is not a (src, dst) pair"
            continue
        for name in pair:
            if name not in agents:
                yield pair, f"unknown agent {name!r}"
        # a fleet's thousands of links share a few models: each is checked,
        # and named by the first link that uses it, once
        if id(link) in checked:
            continue
        checked.add(id(link))
        if not isinstance(link, LinkModel):
            yield pair, f"link model {link!r} is not a LinkModel"
            continue
        if type(link.delay_ms) is not int or link.delay_ms < 0:
            yield pair, _int_fault("delay", link.delay_ms)
        for name, p in (("drop", link.drop_prob), ("dup", link.dup_prob)):
            if type(p) is not int and type(p) is not float:
                yield pair, f"{name} probability {p!r} is not a number"
            elif not 0.0 <= p <= 1.0:  # NaN fails too
                yield pair, f"{name} probability {p} outside [0, 1]"
    checked_targets = set()  # the id of each broadcast's target tuple already checked
    for item in sc.schedule:
        if isinstance(item, StartIcd):
            if type(item.agent_id) is not str:
                yield item, f"device name {item.agent_id!r} is not a str"
            elif item.agent_id not in devices:
                yield item, f"unknown device {item.agent_id!r}"
        elif isinstance(item, (RotateMpc, SendParameterUpdate)):
            targets = item.targets
            # a fleet's broadcasts each name the whole fleet and share one
            # tuple: it is checked, and named by its first broadcast, once
            if id(targets) not in checked_targets:
                checked_targets.add(id(targets))
                if type(targets) is not tuple or any(type(name) is not str for name in targets):
                    yield item, f"targets {targets!r} are not a tuple of agent names"
                elif not targets:
                    yield item, "broadcast has no targets"
                else:
                    for name in targets:
                        if name not in agents:
                            yield item, f"unknown agent {name!r}"
        else:
            yield item, f"unknown schedule item {item!r}"
            continue
        if type(item.at) is not int or item.at < 0:
            yield item, _int_fault("time", item.at)
    for action in sc.adversary:
        if isinstance(action, Inject):
            if type(action.to) is not str:
                yield action, f"target {action.to!r} is not a str"
            elif action.to not in agents:
                yield action, f"unknown agent {action.to!r}"
            if type(action.src) is not str:
                yield action, f"sender {action.src!r} is not a str"
            frame = action.frame
            if not isinstance(frame, wire.WireMessage):
                yield action, f"injected {type(frame).__name__} is not a frame"
            else:
                try:
                    wire.encode(frame)
                except wire.WireError as exc:
                    yield action, f"injected {type(frame).__name__} does not encode: {exc}"
        elif isinstance(action, ReplayCaptured):
            if type(action.index) is not int or action.index < 0:
                yield action, _int_fault("replay index", action.index)
        elif isinstance(action, (CaptureMatching, CorruptBit)):
            bits = _PAYLOAD_BITS.get(action.tag) if type(action.tag) is int else None
            if bits is None:
                yield action, f"tag {action.tag!r} names no frame"
            elif isinstance(action, CorruptBit):
                if type(action.bit_index) is not int:
                    yield action, _int_fault("bit index", action.bit_index)
                elif not 0 <= action.bit_index < bits:
                    name = wire.tag_name(action.tag)
                    yield action, f"bit {action.bit_index} outside the {bits}-bit payload of {name}"
        else:
            yield action, f"unknown adversary item {action!r}"
        if isinstance(action, (ReplayCaptured, Inject)):
            if type(action.at) is not int or action.at < 0:
                yield action, _int_fault("time", action.at)
    for expect in sc.expects:
        kind = expect[0] if type(expect) is tuple and expect else None
        if type(kind) is not str or _EXPECT_LENGTHS.get(kind) != len(expect):
            yield expect, f"unrecognized expectation {expect!r}"
        elif kind in ("reaches", "ends"):
            _, agent, state = expect
            if type(agent) is not str:
                yield expect, f"agent name {agent!r} is not a str"
            elif agent not in agents:
                yield expect, f"unknown agent {agent!r}"
            elif type(state) is not str or state not in (
                STATE_NAMES if agent in devices else ("-",)
            ):
                yield expect, f"{agent} has no state {state!r}"
        elif kind == "frame-count":
            _, frame, op, count = expect
            if type(frame) is not str or frame not in _FRAME_NAMES:
                yield expect, f"unknown frame {frame!r}"
            if type(op) is not str or op not in FRAME_COUNT_OPS:
                yield expect, f"unknown frame-count operator {op!r}"
            if type(count) is not int:
                yield expect, _int_fault("frame count", count)
        elif not isinstance(expect[1], (str, os.PathLike)):
            yield expect, f"golden trace path {expect[1]!r} is not a path"


def _int_fault(name: str, value, bits: int | None = None) -> str:
    """Why `value`, which broke its rule, is not a valid `name`: it is not
    an `int`, or it is negative or (if `bits` is given) wider than `bits`."""
    if type(value) is not int:
        return f"{name} {value!r} is not an int"
    if bits is None:
        return f"negative {name} {value}"
    return f"{name} {value} does not fit in {bits} bits"


def _bytes_fault(name: str, value, length: int) -> str:
    got = len(value) if isinstance(value, bytes) else type(value).__name__
    return f"{name} must be {length} bytes, got {got}"


def route_table() -> str:
    """The "Who sends what" list of frames.md, read from the agents' dispatch
    tables: for each agent, one line per sender table naming the frames it
    obeys from that sender, in tag order."""
    rows = []
    for receiver, agent in (("icd-N", IcdAgent), (MAP, MapAgent), (WBRAC, WbracService)):
        tables = [(f"`{sender}`", table) for sender, table in agent._BY_SENDER.items()]
        for sender, table in tables + [("any other sender", agent._FROM_DEVICE)]:
            frames = ", ".join(cls.__name__ for cls in wire.MESSAGE_TYPES if cls in table)
            rows.append(f"- {sender} → `{receiver}`: {frames or 'nothing'}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Trace


class TraceEntry(NamedTuple):
    time: int
    sender: str
    receiver: str
    tag: str
    payload: bytes | None
    note: str


class Trace:
    """The lines of a run, held as columns: `times`, `senders`,
    `receivers`, `raws` and `notes`, where line i is the i-th item of each.
    `raws` holds a frame line's whole encoded frame, header included, as the
    one bytes object `wire.encode` returned for it, and `None` for a line
    that is not a frame.  A frame line's tag is the name of the frame whose
    `TAG` is its header byte, `raw[0]`, and is not stored; `add` keeps the
    tag of a line that is not a frame (a tick, a skipped start or rotation,
    a no-op replay) in a table keyed by line number, and `tags` builds the
    column from both when it is read.  `times` is an `array('I')` of 4-byte
    machine integers, turned into a list by the first time that does not
    fit in one (2**32 ms or more); the other columns are lists.  A line
    costs four bytes and four references and no object of its own; its
    other values are the objects the simulator passed in, so all copies of
    a broadcast share one encoded frame and equal notes one string (the
    simulator shares the notes it writes, and `add` appends what it is
    given).  `entries` builds a new list of one `TraceEntry` per line, a
    copy that later lines do not change, whose `payload` is the frame's
    bytes after its header (`wire.HEADER_SIZE` bytes); `serialize` writes
    the hex of those bytes, and it, `frame_count` and
    `scenario.check_expects` read the columns themselves."""

    __slots__ = ("times", "senders", "receivers", "raws", "notes", "_line_tags")

    def __init__(self):
        self.times: array | list[int] = array("I")  # a list from the first time >= 2**32
        self.senders: list[str] = []
        self.receivers: list[str] = []
        self.raws: list[bytes | None] = []
        self.notes: list[str] = []
        self._line_tags: dict[int, str] = {}  # line number -> tag, for each line without a frame

    def add(self, time, sender, receiver, tag, raw, note):
        """Append one line; `tag` is kept only when `raw` is None, since a
        frame line's tag is read from `raw`."""
        try:
            self.times.append(time)
        except OverflowError:  # a time of 2**32 ms or more
            self.times = [*self.times, time]
        if raw is None:
            self._line_tags[len(self.notes)] = tag
        self.senders.append(sender)
        self.receivers.append(receiver)
        self.raws.append(raw)
        self.notes.append(note)

    @property
    def tags(self) -> list[str]:
        """Each line's tag, in a new list."""
        names, line_tags = _TAG_NAMES, self._line_tags
        return [
            line_tags[i] if raw is None else names[raw[0]] for i, raw in enumerate(self.raws)
        ]

    def _columns(self) -> tuple:
        """The columns in `TraceEntry` field order, each payload cut from
        its line's encoded frame as it is read."""
        header = wire.HEADER_SIZE
        payloads = (None if raw is None else raw[header:] for raw in self.raws)
        return self.times, self.senders, self.receivers, self.tags, payloads, self.notes

    @property
    def entries(self) -> list[TraceEntry]:
        return list(map(TraceEntry._make, zip(*self._columns())))

    def frame_count(self, tag: str) -> int:
        return sum(
            1 for t, note in zip(self.tags, self.notes)
            if t == tag and not note.startswith("dropped")
        )

    def serialize(self) -> str:
        lines = ["wgiot-trace v1", f"backend {crypto.DEFAULT_BACKEND.name}"]
        for time, sender, receiver, tag, payload, note in zip(*self._columns()):
            payload = payload.hex() if payload else "-"
            lines.append(f"{time}\t{sender}\t{receiver}\t{tag}\t{payload}\t{note or '-'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Simulator


# A queued copy of a frame is a list, a burst a tuple and a timer tick its
# device's name (see the module docstring), so the event table keys
# `_on_deliver` by `list`, `_on_burst` by `tuple` and `_on_tick` by `str`.


class _Devices(Mapping):
    """The devices of an agent table: a read-only view of it without the
    WBRAC and the access point, which are its first two entries, so the
    devices come in registry order."""

    __slots__ = ("_agents",)

    def __init__(self, agents: dict):
        self._agents = agents

    def __getitem__(self, name: str) -> IcdAgent:
        if name == WBRAC or name == MAP:
            raise KeyError(name)
        return self._agents[name]

    def __iter__(self):
        return islice(self._agents, 2, None)

    def __len__(self) -> int:
        return len(self._agents) - 2


# The frame of every parameter-update broadcast, shared as the access
# point's fixed frames are (see access_point.py).
PARAMETER_UPDATE_ORDER = wire.ParameterUpdateOrder()


class Simulator:
    def __init__(self, scenario: Scenario, seed: int):
        if type(seed) is not int or seed < 0:
            raise ScenarioError(_int_fault("seed", seed))
        self.scenario = scenario
        self.rng = SimRng(seed)
        self.now = 0
        self._heap: list[int] = []  # the distinct pending times
        self._calendar: dict[int, list] = {}  # pending time -> its events, in push order
        self._taken = 0  # events of the earliest time's list already stepped
        self._links = scenario.links
        # targets -> the plan of a broadcast to them (`_plan`), None where a link draws
        self._plans: dict[tuple[str, ...], list | None] = {}
        # every note written, one string per text: a delivery's by its parts, any other by its text
        self._notes: dict[tuple[str, str, str] | str, str] = {}
        self.trace = Trace()
        self.captured: list[tuple[str, str, bytes]] = []
        self._capture_tags = {a.tag for a in scenario.adversary if isinstance(a, CaptureMatching)}
        self._corrupt_queue = [a for a in scenario.adversary if isinstance(a, CorruptBit)]
        # the tags whose frames the hooks look at; a tag stays after its
        # corrupt actions are used up, and the hooks then match nothing
        self._hooked_tags = frozenset(self._capture_tags | {a.tag for a in self._corrupt_queue})

        self._build_agents()
        self._load_schedule()

    # -- construction --

    def _build_agents(self):
        sc = self.scenario
        self.wbrac = wbrac = WbracService(self.rng, sc.mpc_period)
        mpc = wbrac.mpc
        self.map = MapAgent(mpc, wbrac.registration_pair)
        self.agents = agents = {WBRAC: wbrac, MAP: self.map}
        self.icds = _Devices(agents)
        rng = self.rng
        # bound once, not per device
        register, expect, provision_map = wbrac.provision, wbrac.map_expectations, self.map.provision
        packed_rmcs: dict[int, bytes] = {}  # a row's rmc -> its 16 bytes, one object per value
        for agent_id, sub in zip(device_ids(len(sc.subscribers)), sc.subscribers):
            # both sides hold the row's own bytes, so its SD is one object
            rec = register(sub.icd_in, sub.esn, sub.sc_auth_k, sub.sd)
            rmc = packed_rmcs.get(sub.rmc)
            if rmc is None:
                rmc = packed_rmcs[sub.rmc] = sub.rmc.to_bytes(16, "big")
            # the AAC the access point expects is the device's own, one object
            aac = expect(rec)
            cfg = IcdConfig(sub.icd_in, sub.esn, sub.sc_auth_k, sub.sd, aac, mpc, rmc)
            agents[agent_id] = IcdAgent(cfg, rng)
            provision_map(agent_id, sub.icd_in, rmc, aac)
        # the registration WMAPs, read at a device's first challenge
        wbrac.jump_past_wmaps()

    def _load_schedule(self):
        calendar = self._calendar
        for item in self.scenario.schedule:
            calendar.setdefault(item.at, []).append(item)
        for action in self.scenario.adversary:
            if isinstance(action, (ReplayCaptured, Inject)):
                calendar.setdefault(action.at, []).append(action)
        self._heap = list(calendar)
        heapq.heapify(self._heap)

    def _push(self, at: int, item) -> None:
        events = self._calendar.get(at)
        if events is not None:  # `at` is pending, so it is not before now
            events.append(item)
        else:
            self._open(at, item)

    def _open(self, at: int, item) -> None:
        """Make `at`, a time with no pending events, pending with `item` as
        its first event; the only code that adds a time once the schedule
        is loaded."""
        if at < self.now:
            raise ValueError(f"event at {at} ms pushed at {self.now} ms")
        self._calendar[at] = [item]
        heapq.heappush(self._heap, at)

    # -- frame transport --

    def send(self, src: str, dst: str, msg: wire.WireMessage) -> None:
        self._transmit(src, dst, wire.encode(msg), msg)

    def _transmit(self, src: str, dst: str, raw: bytes, frame: wire.WireMessage) -> None:
        """Put one encoded frame on the src -> dst link: the adversary's
        hooks, then the link's drop and duplicate draws.  `frame` is raw's
        frame; a corrupted copy replaces both.  Every copy of a broadcast
        that is not burst comes here.  It queues the copy itself when its
        time is already pending, as a broadcast copy at `now` is, and
        through `_open` when the time is new."""
        note = ""
        if raw[0] in self._hooked_tags:
            frame, raw, note = self._adversary_hooks(src, dst, raw, frame)
        link = self._links.get((src, dst), NO_IMPAIRMENT)
        # chance() draws nothing at probability 0; skipping the call there
        # leaves the draws as they were
        p = link.drop_prob
        dropped = p > 0.0 and self.rng.chance(p)
        p = link.dup_prob
        duplicated = p > 0.0 and self.rng.chance(p)
        at = self.now + link.delay_ms
        item = [src, dst, dropped, note, frame, raw]
        events = self._calendar.get(at)
        if events is None:
            self._open(at, item)
        else:
            events.append(item)
        if duplicated and not dropped:
            self._push(at, [src, dst, False, "duplicate", frame, raw])

    def _adversary_hooks(self, src: str, dst: str, raw: bytes, frame: wire.WireMessage):
        """Capture and corrupt one frame on the send path, as armed; return
        its (frame, raw, note) after them.  A capture holds the bytes as
        sent, before any corruption; a corrupted copy is decoded here,
        once, whatever becomes of it on the link."""
        tag = raw[0]
        note = ""
        if tag in self._capture_tags:
            self.captured.append((src, dst, raw))
            note = "captured"
        for i, action in enumerate(self._corrupt_queue):
            if action.tag == tag:
                raw = self._flip_payload_bit(raw, action.bit_index)
                frame = wire.decode(raw)
                del self._corrupt_queue[i]
                note = (note + " corrupted").strip()
                break
        return frame, raw, note

    @staticmethod
    def _flip_payload_bit(raw: bytes, bit_index: int) -> bytes:
        byte_at = wire.HEADER_SIZE + bit_index // 8
        buf = bytearray(raw)
        buf[byte_at] ^= 0x80 >> (bit_index % 8)
        return bytes(buf)

    # -- event loop --

    def step(self) -> None:
        """Handle the next event: a frame copy, a burst (every copy in it),
        a timer tick or a scheduled item.  Raise `NoEvents` when none is
        pending."""
        heap = self._heap
        if not heap:
            raise NoEvents()
        self.now = at = heap[0]
        events = self._calendar[at]
        taken = self._taken
        item = events[taken]
        taken += 1
        if taken == len(events):
            heapq.heappop(heap)
            del self._calendar[at]
            taken = 0
        self._taken = taken
        self._EVENT_HANDLERS[type(item)](self, item)

    def _broadcast(self, targets: tuple[str, ...], frame: wire.WireMessage) -> None:
        """Send `frame` from the WBRAC to each target: a new burst per group
        of the plan of `targets`, or, when a hook looks at the tag or the
        plan is None, each copy through `_transmit`, in target order."""
        raw = wire.encode(frame)
        if raw[0] not in self._hooked_tags:
            try:
                plan = self._plans[targets]
            except KeyError:
                plan = self._plans[targets] = self._plan(targets)
            if plan is not None:
                now = self.now
                for delay, group in plan:
                    self._push(now + delay, (group, frame, raw))
                return
        for target in targets:
            self._transmit(WBRAC, target, raw, frame)

    def _plan(self, targets: tuple[str, ...]) -> list | None:
        """The bursts of a broadcast to `targets`: a (delay, targets) group
        per arrival delay, its targets a tuple in the order of `targets`,
        which every burst of the group shares; None as soon as the WBRAC's
        link to a target draws."""
        groups: dict[int, list[str]] = {}  # delay -> its targets
        links = self._links
        for target in targets:
            link = links.get((WBRAC, target), NO_IMPAIRMENT)
            if link.drop_prob > 0.0 or link.dup_prob > 0.0:
                return None
            groups.setdefault(link.delay_ms, []).append(target)
        return [(delay, tuple(group)) for delay, group in groups.items()]

    def _on_tick(self, agent_id: str) -> None:
        result = self.agents[agent_id].tick(self.now)
        if result.note:
            self.trace.add(self.now, "-", agent_id, "tick", None, self._shared(result.note))
        if result.out or result.tick_at is not None:
            self._apply(agent_id, result)

    def _on_start(self, item: StartIcd) -> None:
        agent_id = item.agent_id
        result = self.agents[agent_id].start(self.now)
        if result.note:
            self.trace.add(self.now, "-", agent_id, "start", None, self._shared(result.note))
        self._apply(agent_id, result)

    def _on_rotate(self, item: RotateMpc) -> None:
        try:
            frame = self.wbrac.rotate_mpc(self.now)
        except TooEarly as exc:
            self.trace.add(self.now, WBRAC, "-", "rotate", None, self._shared(f"skipped: {exc}"))
            return
        self._broadcast(item.targets, frame)

    def _on_parameter_update(self, item: SendParameterUpdate) -> None:
        self._broadcast(item.targets, PARAMETER_UPDATE_ORDER)

    def _on_replay(self, item: ReplayCaptured) -> None:
        if item.index >= len(self.captured):
            note = self._shared("no-op: nothing captured")
            self.trace.add(self.now, ADVERSARY, "-", "replay", None, note)
            return
        src, dst, raw = self.captured[item.index]
        self._push(self.now, [src, dst, False, "replayed", wire.decode(raw), raw])

    def _on_inject(self, item: Inject) -> None:
        raw = wire.encode(item.frame)
        self._push(self.now, [item.src, item.to, False, "injected", item.frame, raw])

    def _on_deliver(self, ev: list) -> None:
        src, dst, dropped, note, msg, raw = ev
        now = self.now
        agent = None if dropped else self.agents.get(dst)
        if agent is None:
            label = "dropped " if dropped else "sink "
            self.trace.add(now, src, dst, None, raw, self._shared((label + note).strip()))
            return
        result = agent.handle(src, msg, now)
        key = (note, result.note, agent.state_name)
        text = self._notes.get(key)
        if text is None:
            text = self._delivery_note(key)
        self.trace.add(now, src, dst, None, raw, text)
        if result.out or result.tick_at is not None:
            self._apply(dst, result)

    def _on_burst(self, burst: tuple) -> None:
        targets, msg, raw = burst
        now, agents, notes, add = self.now, self.agents, self._notes, self.trace.add
        for target in targets:
            agent = agents[target]
            result = agent.handle(WBRAC, msg, now)
            key = ("", result.note, agent.state_name)
            text = notes.get(key)
            if text is None:
                text = self._delivery_note(key)
            add(now, WBRAC, target, None, raw, text)
            if result.out or result.tick_at is not None:
                self._apply(target, result)

    def _delivery_note(self, key: tuple[str, str, str]) -> str:
        """The trace note of a delivery, from its (copy note, agent result
        note, agent state) `key`; kept in `_notes` for reuse."""
        note, result_note, state = key
        outcome = f"-> {state}"
        if result_note:
            outcome = f"{result_note} {outcome}"
        text = self._notes[key] = f"{note} {outcome}" if note else outcome
        return text

    def _shared(self, text: str) -> str:
        """The one string in `_notes` equal to `text`, a note that is not a
        delivery's."""
        return self._notes.setdefault(text, text)

    def _apply(self, agent_id: str, result) -> None:
        for dst, msg in result.out:
            self.send(agent_id, dst, msg)
        if result.tick_at is not None:
            self._push(result.tick_at, agent_id)

    _EVENT_HANDLERS = {
        list: _on_deliver,
        tuple: _on_burst,
        str: _on_tick,
        StartIcd: _on_start,
        RotateMpc: _on_rotate,
        SendParameterUpdate: _on_parameter_update,
        ReplayCaptured: _on_replay,
        Inject: _on_inject,
    }

    def run(self) -> Trace:
        heap, max_time = self._heap, self.scenario.max_time
        while heap and heap[0] <= max_time:
            self.step()
        return self.trace
