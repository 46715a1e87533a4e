"""Deterministic discrete-event harness for the wg-IoT protocol.

One WBRAC, one access point (MAP), and any number of devices exchange
frames over links with configurable delay/drop/duplication.  Virtual time is
integer milliseconds; events at equal times process in insertion order, so a
(scenario, seed) pair fully determines the trace.  An adversary can capture,
replay, inject, and corrupt frames in flight.  Every scenario, built in code
or parsed, is checked before it runs by `scenario_faults`, the one statement
of the rules its values must meet.  All PRF work uses the reference backend,
`crypto.DEFAULT_BACKEND`.

Pending events sit in a calendar: a heap of the distinct pending times
(`Simulator._heap`) and, for each time, a list of its events in push order.
`step()` takes exactly one event, the next one in the earliest time's list;
a time leaves the heap when its list is used up.  No event is pushed before
`now` (`_open`, the one place a running simulator adds a time, raises
`ValueError`), so an event pushed at `now`, such as a reply sent with no
delay during a broadcast burst, joins the end of the current list and runs
after every event already pending at that time.

A frame reaches its receiver as it was sent: each encode is paired with its
frame and trace payload, and every copy on a link (all targets of a
broadcast, a duplicate) shares that pair; frames are frozen.  Only bytes the
adversary made, a corrupted copy or a replay, are decoded at delivery.

What is kept per device, frame or trace line is shared where it can be, as a
memory saving that no result depends on.  The trace is held as columns, an
array of 8-byte times and one list per other field, so a line is eight bytes
and five references and no object of its own (`Trace.entries` builds a
`TraceEntry` only when a line is read); the copies of a broadcast share one
payload.
`Trace.add` keeps one copy of each distinct note, and agent names are
interned (`device_ids`, and the names the scenario parser reads from links
and the schedule), so a fleet holds one string per name; the simulator
composes a delivery's note once per distinct (frame note, agent note, agent
state) and reuses that string.  A value an agent only stores is the frame's
own bytes, so after a broadcast the MPC is one object in the WBRAC's
schedule, the access point and every device, and each `MapRecord` holds its
provision frame itself.  A device's SD is its registry row's bytes, one
`SdPair` shared by the WBRAC and the device; derived values (AAC,
AUTH_SIGN_MAP, session key) are plain `bytes`.  The frames, the scenario
items, `Scenario`, the crypto key and counter types, the device's states and
`IcdConfig`, `IcdAgent`, the access point's `MapRecord`/`PendingUpdate`, the
WBRAC's `SubscriberRecord`/`MpcSchedule` and `Trace` are slotted, with no
per-instance attribute dict; the device states without fields (`Idle`,
`AwaitingAuthResult`, `Denied`) are one shared instance each, as is each
agent result that is only a fixed note (see `agent.Transition`).  The
adversary's capture and corrupt hooks run on the send path only for frames
of an armed tag.
"""

from __future__ import annotations

import functools
import heapq
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from . import crypto, wire
from .access_point import MapAgent
from .agent import MAP, WBRAC, NotIdle
from .icd import IcdAgent, IcdConfig
from .rng import SimRng
from .wbrac import DEFAULT_MPC_PERIOD_MS, DEFAULT_WBRAC_ID, MpcSchedule, TooEarly, WbracService

DEFAULT_MAX_TIME_MS = 60_000


class ScenarioError(Exception):
    pass


class NoEvents(Exception):
    pass


# ---------------------------------------------------------------------------
# Scenario description


@dataclass(frozen=True, slots=True)
class LinkModel:
    delay_ms: int = 0
    drop_prob: float = 0.0
    dup_prob: float = 0.0


NO_IMPAIRMENT = LinkModel()  # a link the scenario does not list


@dataclass(frozen=True, slots=True)
class SubscriberSpec:
    """One registry row; the device agent is named icd-<position> (1-based)."""

    icd_in: int
    esn: int
    key: bytes  # 32-byte WGIE key
    sc_auth_k: bytes  # 16 bytes
    sd: bytes  # 16 bytes
    rmc: int = 0


@dataclass(frozen=True, slots=True)
class StartIcd:
    agent_id: str
    at: int = 0


@dataclass(frozen=True, slots=True)
class RotateMpc:
    at: int
    targets: tuple[str, ...]  # agents receiving the broadcast


@dataclass(frozen=True, slots=True)
class SendParameterUpdate:
    """Broadcast a parameter update order, bumping RMC at the targets."""

    at: int
    targets: tuple[str, ...]


# Adversary actions.  Capture and corrupt arm passive hooks on the send path;
# replay and inject are scheduled events.


@dataclass(frozen=True, slots=True)
class CaptureMatching:
    tag: int


@dataclass(frozen=True, slots=True)
class ReplayCaptured:
    index: int
    at: int


@dataclass(frozen=True, slots=True)
class Inject:
    frame: wire.WireMessage
    to: str
    at: int
    src: str = "adversary"


@dataclass(frozen=True, slots=True)
class CorruptBit:
    tag: int
    bit_index: int  # bit offset into the payload, MSB-first


@dataclass(slots=True)
class Scenario:
    subscribers: list[SubscriberSpec]
    links: dict[tuple[str, str], LinkModel] = field(default_factory=dict)
    schedule: list = field(default_factory=list)
    adversary: list = field(default_factory=list)
    expects: list = field(default_factory=list)
    max_time: int = DEFAULT_MAX_TIME_MS
    wbrac_id: int = DEFAULT_WBRAC_ID
    mpc_period: int = DEFAULT_MPC_PERIOD_MS


def device_ids(sc: Scenario) -> tuple[str, ...]:
    """The devices' agent names, in registry order, interned; built once per
    registry size."""
    return _device_names(len(sc.subscribers))


@functools.lru_cache(maxsize=8)
def _device_names(count: int) -> tuple[str, ...]:
    return tuple(sys.intern(f"icd-{i}") for i in range(1, count + 1))


_PAYLOAD_BITS = {cls.TAG: 8 * cls.SIZE for cls in wire.MESSAGE_TYPES}
_FRAME_NAMES = {cls.__name__ for cls in wire.MESSAGE_TYPES}


def scenario_faults(sc: Scenario):
    """Yield (key, reason) for every value of `sc` that breaks a rule; this
    is the only statement of those rules.  The key says where the value was
    set: an option by its field name, a registry row by its device's agent
    name, a link by its (src, dst) pair, any other item by itself.

    The rules: `max_time`, `mpc_period`, a link's delay and every scheduled
    time are non-negative; `wbrac_id`, a row's `icd_in` and `esn` fit in 64
    bits and its `rmc` in 128; a row's key, k and sd have their lengths and
    no two rows share an `icd_in`; drop and dup probabilities lie in [0, 1];
    a link endpoint, a broadcast or injection target and a `reaches` agent
    name an agent, a start names a device and a broadcast has a target; a
    replay index is non-negative, a corrupted bit lies inside its frame's
    payload and a `frame-count` names a frame."""
    for name in ("max_time", "mpc_period"):
        if getattr(sc, name) < 0:
            yield name, f"negative {name} {getattr(sc, name)}"
    if not 0 <= sc.wbrac_id < 1 << 64:
        yield "wbrac_id", f"wbrac_id {sc.wbrac_id} does not fit in 64 bits"
    names = device_ids(sc)
    first_with = {}  # icd_in -> the device registered with it first
    for device, sub in zip(names, sc.subscribers):
        # spelled out rather than looped over a table: a fleet has thousands of rows
        if not 0 <= sub.icd_in < 1 << 64:
            yield device, f"icd_in {sub.icd_in} does not fit in 64 bits"
        if not 0 <= sub.esn < 1 << 64:
            yield device, f"esn {sub.esn} does not fit in 64 bits"
        if not 0 <= sub.rmc < 1 << 128:
            yield device, f"rmc {sub.rmc} does not fit in 128 bits"
        if len(sub.key) != 32:
            yield device, f"key must be 32 bytes, got {len(sub.key)}"
        if len(sub.sc_auth_k) != 16:
            yield device, f"sc_auth_k must be 16 bytes, got {len(sub.sc_auth_k)}"
        if len(sub.sd) != 16:
            yield device, f"sd must be 16 bytes, got {len(sub.sd)}"
        first = first_with.setdefault(sub.icd_in, device)
        if first != device:
            yield device, f"duplicate icd_in {sub.icd_in}, first registered by {first}"
    devices = set(names)
    agents = devices | {WBRAC, MAP}
    for pair, link in sc.links.items():
        for name in pair:
            if name not in agents:
                yield pair, f"unknown agent {name!r}"
        if link.delay_ms < 0:
            yield pair, f"negative delay {link.delay_ms}"
        if not 0.0 <= link.drop_prob <= 1.0:  # NaN fails too
            yield pair, f"drop probability {link.drop_prob} outside [0, 1]"
        if not 0.0 <= link.dup_prob <= 1.0:
            yield pair, f"dup probability {link.dup_prob} outside [0, 1]"
    for item in sc.schedule:
        if isinstance(item, StartIcd):
            if item.agent_id not in devices:
                yield item, f"unknown device {item.agent_id!r}"
        elif isinstance(item, (RotateMpc, SendParameterUpdate)):
            if not item.targets:
                yield item, "broadcast has no targets"
            for name in item.targets:
                if name not in agents:
                    yield item, f"unknown agent {name!r}"
        else:
            yield item, f"unknown schedule item {item!r}"
            continue
        if item.at < 0:
            yield item, f"negative time {item.at}"
    for action in sc.adversary:
        if isinstance(action, Inject) and action.to not in agents:
            yield action, f"unknown agent {action.to!r}"
        elif isinstance(action, ReplayCaptured) and action.index < 0:
            yield action, f"negative replay index {action.index}"
        elif isinstance(action, CorruptBit):
            bits = _PAYLOAD_BITS.get(action.tag, 0)
            if not 0 <= action.bit_index < bits:
                name = wire.tag_name(action.tag)
                yield action, f"bit {action.bit_index} outside the {bits}-bit payload of {name}"
        if isinstance(action, (ReplayCaptured, Inject)) and action.at < 0:
            yield action, f"negative time {action.at}"
    for expect in sc.expects:
        if expect[0] == "reaches" and expect[1] not in agents:
            yield expect, f"unknown agent {expect[1]!r}"
        elif expect[0] == "frame-count" and expect[1] not in _FRAME_NAMES:
            yield expect, f"unknown frame {expect[1]!r}"


# ---------------------------------------------------------------------------
# Trace


# Builds a named tuple from a tuple of its fields without the NamedTuple's
# Python-level __new__; the per-frame paths use it.
_new = tuple.__new__


class TraceEntry(NamedTuple):
    time: int
    sender: str
    receiver: str
    tag: str
    payload: bytes | None
    note: str


_entry = functools.partial(_new, TraceEntry)


class Trace:
    """The lines of a run, held as columns: one sequence per `TraceEntry`
    field (`times`, `senders`, `receivers`, `tags`, `payloads`, `notes`),
    where line i is the i-th item of each.  `times` is an `array('q')` of
    8-byte machine integers, turned into a list by the first time that does
    not fit in one (2**63 ms or more); the other columns are lists.  A line
    costs eight bytes and five references and no object of its own; its
    other values are the objects the simulator passed in, so all copies of
    a broadcast share one payload, and `add` keeps one copy of each distinct
    note.  `entries` is a read-only view that builds a `TraceEntry` per line
    read; `serialize`, `frame_count` and `scenario.check_expects` read the
    columns themselves."""

    __slots__ = ("times", "senders", "receivers", "tags", "payloads", "notes", "_note_copies")

    def __init__(self):
        self.times: array | list[int] = array("q")  # a list from the first time >= 2**63
        self.senders: list[str] = []
        self.receivers: list[str] = []
        self.tags: list[str] = []
        self.payloads: list[bytes | None] = []
        self.notes: list[str] = []
        self._note_copies: dict[str, str] = {}  # each distinct note -> its one copy

    def add(self, time, sender, receiver, tag, payload, note):
        try:
            self.times.append(time)
        except OverflowError:  # a time of 2**63 ms or more
            self.times = [*self.times, time]
        self.senders.append(sender)
        self.receivers.append(receiver)
        self.tags.append(tag)
        self.payloads.append(payload)
        self.notes.append(self._note_copies.setdefault(note, note))

    def _columns(self) -> tuple[Sequence, ...]:
        """The columns in `TraceEntry` field order."""
        return self.times, self.senders, self.receivers, self.tags, self.payloads, self.notes

    @property
    def entries(self) -> TraceEntries:
        return TraceEntries(self)

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


class TraceEntries(Sequence):
    """A read-only view of a trace's lines as `TraceEntry` tuples, each built
    when it is read; it equals a list of equal tuples.  It reads the trace's
    columns at each access, so it also sees a `times` column that `add`
    has since turned into a list."""

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.notes)

    def __getitem__(self, index):
        columns = self._trace._columns()
        if isinstance(index, slice):
            return list(map(_entry, zip(*(column[index] for column in columns))))
        return _entry(column[index] for column in columns)

    def __iter__(self):
        return map(_entry, zip(*self._trace._columns()))

    def __eq__(self, other):
        if not isinstance(other, (list, TraceEntries)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"TraceEntries({list(self)!r})"


# ---------------------------------------------------------------------------
# Simulator


# Queued events are named tuples, which are cheaper to build than frozen
# dataclasses: the queue holds one per frame in flight.


class _Deliver(NamedTuple):
    src: str
    dst: str
    raw: bytes
    dropped: bool
    note: str
    decoded: tuple | None  # (frame, raw[3:]); None for adversary bytes


class _Tick(NamedTuple):
    agent_id: str


class Simulator:
    def __init__(self, scenario: Scenario, seed: int):
        if seed < 0:
            raise ScenarioError(f"negative seed {seed}")
        for _, reason in scenario_faults(scenario):
            raise ScenarioError(reason)
        self.scenario = scenario
        self.rng = SimRng(seed)
        self.now = 0
        self._heap: list[int] = []  # the distinct pending times
        self._calendar: dict[int, list] = {}  # pending time -> its events, in push order
        self._taken = 0  # events of the earliest time's list already stepped
        self._links = scenario.links
        self._delivery_notes: dict[tuple[str, str, str], str] = {}  # note by its parts
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
        schedule = MpcSchedule(period_ms=sc.mpc_period)
        self.wbrac = WbracService(sc.wbrac_id, schedule, rng=self.rng)
        self.map = MapAgent(schedule.current)
        self.icds: dict[str, IcdAgent] = {}
        for agent_id, sub in zip(device_ids(sc), sc.subscribers):
            wgie = crypto.WgieRecord(sub.key, sub.esn, sub.icd_in)
            k = crypto.ScAuthKey(sub.sc_auth_k)
            sd = crypto.SdPair(sub.sd)
            rmc = crypto.Rmc(sub.rmc)
            rec = self.wbrac.provision(sub.icd_in, wgie, k, sd)
            cfg = IcdConfig(
                wgie=wgie,
                sc_auth_k=k,
                sd=sd,
                mpc=schedule.current,
                rmc=rmc,
                wbrac_id=sc.wbrac_id,
            )
            self.icds[agent_id] = IcdAgent(cfg, self.rng)
            self.map.provision(agent_id, rmc, self.wbrac.map_provision(rec))
        self.agents = {WBRAC: self.wbrac, MAP: self.map, **self.icds}

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
        raw = wire.encode(msg)
        self._transmit(src, dst, raw, (msg, raw[3:]))

    def _transmit(self, src: str, dst: str, raw: bytes, decoded: tuple) -> None:
        """Put one encoded frame on the src -> dst link: the adversary's
        hooks, then the link's drop and duplicate draws.  `decoded` is
        raw's (frame, payload); a corrupted copy drops it.  It queues the
        copy itself when its time is already pending, as a broadcast copy at
        `now` is, and through `_open` when the time is new."""
        note = ""
        if raw[0] in self._hooked_tags:
            raw, decoded, note = self._adversary_hooks(src, dst, raw, decoded)
        link = self._links.get((src, dst), NO_IMPAIRMENT)
        # chance() draws nothing at probability 0; skipping the call there
        # leaves the draws as they were
        p = link.drop_prob
        dropped = p > 0.0 and self.rng.chance(p)
        p = link.dup_prob
        duplicated = p > 0.0 and self.rng.chance(p)
        at = self.now + link.delay_ms
        item = _new(_Deliver, (src, dst, raw, dropped, note, decoded))
        events = self._calendar.get(at)
        if events is None:
            self._open(at, item)
        else:
            events.append(item)
        if duplicated and not dropped:
            self._push(at, _new(_Deliver, (src, dst, raw, False, "duplicate", decoded)))

    def _adversary_hooks(self, src: str, dst: str, raw: bytes, decoded: tuple):
        """Capture and corrupt one frame on the send path, as armed; return
        its (raw, decoded, note) after them."""
        tag = raw[0]
        note = ""
        if tag in self._capture_tags:
            self.captured.append((src, dst, raw))
            note = "captured"
        for i, action in enumerate(self._corrupt_queue):
            if action.tag == tag:
                raw = self._flip_payload_bit(raw, action.bit_index)
                decoded = None
                del self._corrupt_queue[i]
                note = (note + " corrupted").strip()
                break
        return raw, decoded, note

    @staticmethod
    def _flip_payload_bit(raw: bytes, bit_index: int) -> bytes:
        byte_at = 3 + bit_index // 8
        buf = bytearray(raw)
        buf[byte_at] ^= 0x80 >> (bit_index % 8)
        return bytes(buf)

    # -- event loop --

    def step(self) -> None:
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
        raw = wire.encode(frame)
        decoded = (frame, raw[3:])
        for target in targets:
            self._transmit(WBRAC, target, raw, decoded)

    def _on_tick(self, item: _Tick) -> None:
        result = self.agents[item.agent_id].tick(self.now)
        if result.note:
            self.trace.add(self.now, "-", item.agent_id, "tick", None, result.note)
        if result.out or result.tick_at is not None:
            self._apply(item.agent_id, result)

    def _on_start(self, item: StartIcd) -> None:
        try:
            result = self.icds[item.agent_id].start(self.now)
        except NotIdle as exc:
            self.trace.add(self.now, "-", item.agent_id, "start", None, f"skipped: {exc}")
            return
        self._apply(item.agent_id, result)

    def _on_rotate(self, item: RotateMpc) -> None:
        try:
            frame = self.wbrac.rotate_mpc(self.now)
        except TooEarly as exc:
            self.trace.add(self.now, WBRAC, "-", "rotate", None, f"skipped: {exc}")
            return
        self._broadcast(item.targets, frame)

    def _on_parameter_update(self, item: SendParameterUpdate) -> None:
        self._broadcast(item.targets, wire.ParameterUpdateOrder())

    def _on_replay(self, item: ReplayCaptured) -> None:
        if item.index >= len(self.captured):
            self.trace.add(self.now, "adversary", "-", "replay", None, "no-op: nothing captured")
            return
        src, dst, raw = self.captured[item.index]
        self._push(self.now, _new(_Deliver, (src, dst, raw, False, "replayed", None)))

    def _on_inject(self, item: Inject) -> None:
        raw = wire.encode(item.frame)
        decoded = (item.frame, raw[3:])
        self._push(self.now, _Deliver(item.src, item.to, raw, False, "injected", decoded))

    def _on_deliver(self, ev: _Deliver) -> None:
        src, dst, raw, dropped, note, decoded = ev
        now = self.now
        if decoded is None:
            try:
                decoded = wire.decode(raw), raw[3:]
            except wire.WireError as exc:
                self.trace.add(now, src, dst, "?", raw, f"undecodable: {exc}")
                return
        msg, payload = decoded
        tag = type(msg).__name__
        agent = None if dropped else self.agents.get(dst)
        if agent is None:
            label = "dropped " if dropped else "sink "
            self.trace.add(now, src, dst, tag, payload, (label + note).strip())
            return
        result = agent.handle(src, msg, now)
        state = agent.state_name
        key = (note, result.note, state)
        text = self._delivery_notes.get(key)
        if text is None:
            outcome = f"-> {state}"
            if result.note:
                outcome = f"{result.note} {outcome}"
            text = self._delivery_notes[key] = f"{note} {outcome}" if note else outcome
        self.trace.add(now, src, dst, tag, payload, text)
        if result.out or result.tick_at is not None:
            self._apply(dst, result)

    def _apply(self, agent_id: str, result) -> None:
        for dst, msg in result.out:
            self.send(agent_id, dst, msg)
        if result.tick_at is not None:
            self._push(result.tick_at, _Tick(agent_id))

    _EVENT_HANDLERS = {
        _Deliver: _on_deliver,
        _Tick: _on_tick,
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


def sim_run(scenario: Scenario, seed: int) -> Trace:
    """Run a scenario to quiescence (or max virtual time) and return the trace."""
    return Simulator(scenario, seed).run()
