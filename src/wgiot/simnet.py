"""Deterministic discrete-event harness for the wg-IoT protocol.

One WBRAC, one access point (map-1), and any number of devices exchange
frames over links with configurable delay/drop/duplication.  Virtual time is
integer milliseconds; events at equal times process in insertion order, so a
(scenario, seed) pair fully determines the trace.  An adversary can capture,
replay, inject, and corrupt frames in flight.

Each raw frame is decoded once.  A broadcast is encoded and decoded once, and
every copy carries that decoded frame and its trace payload, shared by all
targets (frames are frozen); a copy the adversary corrupts decodes its own
bytes at delivery, as do unicast frames, replays and injections.  A frame
that is dropped or has no receiver is only labelled, so it gets decode's
checks (`wire.frame_type`) but is not unpacked.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

from . import crypto, wire
from .access_point import MapAgent
from .agent import NotIdle
from .icd import IcdAgent, IcdConfig
from .rng import SimRng
from .wbrac import DEFAULT_WBRAC_ID, WbracService

DEFAULT_MAX_TIME_MS = 60_000


class ScenarioError(Exception):
    pass


class NoEvents(Exception):
    pass


# ---------------------------------------------------------------------------
# Scenario description


@dataclass(frozen=True)
class LinkModel:
    delay_ms: int = 0
    drop_prob: float = 0.0
    dup_prob: float = 0.0


NO_IMPAIRMENT = LinkModel()  # a link the scenario does not list


@dataclass(frozen=True)
class SubscriberSpec:
    """One registry row; the device agent is named icd-<position> (1-based)."""

    icd_in: int
    esn: int
    key: bytes  # 32-byte WGIE key
    sc_auth_k: bytes  # 16 bytes
    sd: bytes  # 16 bytes
    rmc: int = 0


@dataclass(frozen=True)
class StartIcd:
    agent_id: str
    at: int = 0


@dataclass(frozen=True)
class RotateMpc:
    at: int
    targets: tuple[str, ...]  # agents receiving the broadcast


@dataclass(frozen=True)
class SendParameterUpdate:
    """Broadcast a parameter update order, bumping RMC at the targets."""

    at: int
    targets: tuple[str, ...]


# Adversary actions.  Capture and corrupt arm passive hooks on the send path;
# replay and inject are scheduled events.


@dataclass(frozen=True)
class CaptureMatching:
    tag: int


@dataclass(frozen=True)
class ReplayCaptured:
    index: int
    at: int


@dataclass(frozen=True)
class Inject:
    frame: wire.WireMessage
    to: str
    at: int
    src: str = "adversary"


@dataclass(frozen=True)
class CorruptBit:
    tag: int
    bit_index: int  # bit offset into the payload, MSB-first


@dataclass
class Scenario:
    subscribers: list[SubscriberSpec]
    links: dict[tuple[str, str], LinkModel] = field(default_factory=dict)
    schedule: list = field(default_factory=list)
    adversary: list = field(default_factory=list)
    expects: list = field(default_factory=list)
    backend: str = "hmac-sha256"
    max_time: int = DEFAULT_MAX_TIME_MS
    wbrac_id: int = DEFAULT_WBRAC_ID
    mpc_period: int = 60_000


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
    def __init__(self, backend_name: str):
        self.backend_name = backend_name
        self.entries: list[TraceEntry] = []

    def add(self, time, sender, receiver, tag, payload, note):
        self.entries.append(TraceEntry(time, sender, receiver, tag, payload, note))

    def frame_count(self, tag: str) -> int:
        return sum(
            1 for e in self.entries if e.tag == tag and not e.note.startswith("dropped")
        )

    def serialize(self) -> str:
        lines = ["wgiot-trace v1", f"backend {self.backend_name}"]
        for e in self.entries:
            payload = e.payload.hex() if e.payload else "-"
            lines.append(f"{e.time}\t{e.sender}\t{e.receiver}\t{e.tag}\t{payload}\t{e.note or '-'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Simulator


# Queued events are named tuples, which are cheaper to build than frozen
# dataclasses: the queue holds one per frame in flight.


class _Deliver(NamedTuple):
    src: str
    dst: str
    raw: bytes
    dropped: bool
    note: str = ""
    decoded: tuple | None = None  # (frame, raw[3:]) when raw was decoded already


class _Tick(NamedTuple):
    agent_id: str


class Simulator:
    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        self.rng = SimRng(seed)
        self.backend = crypto.get_backend(scenario.backend)
        self.now = 0
        self._seq = 0
        self._heap: list = []
        self.trace = Trace(self.backend.name)
        self.captured: list[tuple[str, str, bytes]] = []
        self._capture_tags = {a.tag for a in scenario.adversary if isinstance(a, CaptureMatching)}
        self._corrupt_queue = [a for a in scenario.adversary if isinstance(a, CorruptBit)]

        self._build_agents()
        self._load_schedule()

    # -- construction --

    def _build_agents(self):
        sc = self.scenario
        self.wbrac = WbracService("wbrac", sc.wbrac_id, self.backend, rng=self.rng)
        self.wbrac.schedule.period_ms = sc.mpc_period
        self.map = MapAgent("map-1", "wbrac", self.wbrac.schedule.current)
        self.icds: dict[str, IcdAgent] = {}
        for i, sub in enumerate(sc.subscribers, start=1):
            agent_id = f"icd-{i}"
            wgie = crypto.WgieRecord(sub.key, sub.esn, sub.icd_in)
            k = crypto.ScAuthKey(sub.sc_auth_k)
            sd = crypto.SdPair.from_packed(sub.sd)
            rec = self.wbrac.provision(sub.icd_in, wgie, k, sd=sd)
            rec.rmc = crypto.Rmc(sub.rmc)
            cfg = IcdConfig(
                wgie=wgie,
                sc_auth_k=k,
                sd=sd,
                mpc=self.wbrac.schedule.current,
                rmc=crypto.Rmc(sub.rmc),
                wbrac_id=sc.wbrac_id,
            )
            self.icds[agent_id] = IcdAgent(
                agent_id, cfg, "map-1", self.rng, self.backend, wbrac_agent_id="wbrac"
            )
            self.map.provision(agent_id, rec.rmc, self.wbrac.map_provision(rec))
        self.agents = {"wbrac": self.wbrac, "map-1": self.map, **self.icds}

    def _load_schedule(self):
        for item in self.scenario.schedule:
            if isinstance(item, StartIcd):
                if item.agent_id not in self.icds:
                    raise ScenarioError(f"unknown agent {item.agent_id!r} in schedule")
                self._push(item.at, item)
            elif isinstance(item, (RotateMpc, SendParameterUpdate)):
                for target in item.targets:
                    if target not in self.agents:
                        raise ScenarioError(f"unknown broadcast target {target!r}")
                self._push(item.at, item)
            else:
                raise ScenarioError(f"unknown schedule item {item!r}")
        for action in self.scenario.adversary:
            if isinstance(action, (ReplayCaptured, Inject)):
                if isinstance(action, Inject) and action.to not in self.agents:
                    raise ScenarioError(f"inject target {action.to!r} unknown")
                self._push(action.at, action)

    def _push(self, at: int, item) -> None:
        heapq.heappush(self._heap, (at, self._seq, item))
        self._seq += 1

    # -- frame transport --

    def send(self, src: str, dst: str, msg: wire.WireMessage) -> None:
        self._transmit(src, dst, wire.encode(msg))

    def _transmit(self, src: str, dst: str, raw: bytes, decoded: tuple | None = None) -> None:
        """Put one encoded frame on the src -> dst link: the adversary's
        hooks, then the link's drop and duplicate draws.  `decoded` is
        raw's (frame, payload) if known; a corrupted copy drops it."""
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
        link = self.scenario.links.get((src, dst), NO_IMPAIRMENT)
        dropped = self.rng.chance(link.drop_prob)
        duplicated = self.rng.chance(link.dup_prob)
        at = self.now + link.delay_ms
        self._push(at, _Deliver(src, dst, raw, dropped, note, decoded))
        if duplicated and not dropped:
            self._push(at, _Deliver(src, dst, raw, False, "duplicate", decoded))

    @staticmethod
    def _flip_payload_bit(raw: bytes, bit_index: int) -> bytes:
        byte_at = 3 + bit_index // 8
        if byte_at >= len(raw):
            return raw
        buf = bytearray(raw)
        buf[byte_at] ^= 0x80 >> (bit_index % 8)
        return bytes(buf)

    # -- event loop --

    def step(self) -> None:
        if not self._heap:
            raise NoEvents()
        at, _, item = heapq.heappop(self._heap)
        self.now = at
        self._EVENT_HANDLERS[type(item)](self, item)

    def _broadcast(self, targets: tuple[str, ...], frame: wire.WireMessage) -> None:
        raw = wire.encode(frame)
        decoded = (wire.decode(raw), raw[3:])
        for target in targets:
            self._transmit("wbrac", target, raw, decoded)

    def _on_tick(self, item: _Tick) -> None:
        result = self.agents[item.agent_id].tick(self.now)
        if result.note:
            self.trace.add(self.now, "-", item.agent_id, "tick", None, result.note)
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
        except Exception as exc:
            self.trace.add(self.now, "wbrac", "-", "rotate", None, f"skipped: {exc}")
            return
        self._broadcast(item.targets, frame)

    def _on_parameter_update(self, item: SendParameterUpdate) -> None:
        self._broadcast(item.targets, wire.ParameterUpdateOrder())

    def _on_replay(self, item: ReplayCaptured) -> None:
        if item.index >= len(self.captured):
            self.trace.add(self.now, "adversary", "-", "replay", None, "no-op: nothing captured")
            return
        src, dst, raw = self.captured[item.index]
        self._push(self.now, _Deliver(src, dst, raw, False, "replayed"))

    def _on_inject(self, item: Inject) -> None:
        self._push(self.now, _Deliver(item.src, item.to, wire.encode(item.frame), False, "injected"))

    def _on_deliver(self, ev: _Deliver) -> None:
        src, dst, raw, dropped, note, decoded = ev
        now = self.now
        agent = None if dropped else self.agents.get(dst)
        if decoded is not None:
            msg, payload = decoded
            cls = type(msg)
        else:
            try:
                # a frame nobody handles is checked for its trace line, not unpacked
                if agent is None:
                    cls = wire.frame_type(raw)
                else:
                    msg = wire.decode(raw)
                    cls = type(msg)
            except wire.WireError as exc:
                self.trace.add(now, src, dst, "?", raw, f"undecodable: {exc}")
                return
            payload = raw[3:]
        tag = cls.__name__
        if agent is None:
            label = "dropped " if dropped else "sink "
            self.trace.add(now, src, dst, tag, payload, (label + note).strip())
            return
        result = agent.handle(src, msg, now)
        outcome = f"-> {agent.state_name}"
        if result.note:
            outcome = f"{result.note} {outcome}"
        self.trace.add(now, src, dst, tag, payload, f"{note} {outcome}" if note else outcome)
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
        while self._heap and self._heap[0][0] <= self.scenario.max_time:
            self.step()
        return self.trace


def sim_run(scenario: Scenario, seed: int) -> Trace:
    """Run a scenario to quiescence (or max virtual time) and return the trace."""
    return Simulator(scenario, seed).run()
