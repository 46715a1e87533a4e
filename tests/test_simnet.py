import copy
import hashlib
import heapq
import math
import re
from collections.abc import Mapping, MutableMapping
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_line_tag, honest_scenario, make_subscriber, update_scenario
from wgiot import wire
from wgiot.agent import MAP, MPC_UPDATED, WBRAC, Transition
from wgiot.icd import Authenticated, Denied, Idle
from wgiot.simnet import (
    CaptureMatching,
    CorruptBit,
    Inject,
    LinkModel,
    NoEvents,
    ReadOnlyLinks,
    ReplayCaptured,
    RotateMpc,
    Scenario,
    ScenarioError,
    SendParameterUpdate,
    Simulator,
    StartIcd,
    TraceEntry,
    device_ids,
)
from wgiot.wbrac import WbracService


def test_empty_scenario_empty_trace():
    trace = Simulator(Scenario(subscribers=[]), seed=0).run()
    assert trace.entries == []


def test_trace_entries_read_the_columns():
    empty = Simulator(Scenario(subscribers=[]), seed=0).run().entries
    assert type(empty) is list and empty == []

    trace = Simulator(update_scenario(0), seed=0).run()
    entries = trace.entries
    n = len(entries)
    assert n == len(trace.times) > 3
    assert entries[0] == TraceEntry(
        5, "adversary", "wbrac", "UpdateRequest", (1).to_bytes(8, "big"),
        "injected unexpected UpdateRequest in - -> -",
    )
    assert type(entries[0]) is TraceEntry and entries[0].note == trace.notes[0]
    assert_line_tag(trace, "injected unexpected UpdateRequest in - -> -", "UpdateRequest", 2)
    assert entries[-1] == entries[n - 1] == (
        trace.times[-1], trace.senders[-1], trace.receivers[-1],
        trace.tags[-1], trace.raws[-1][3:], trace.notes[-1],
    )
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            entries[index]
    assert entries[1:3] == [entries[1], entries[2]]

    # iteration yields the serialized lines, in order
    lines = trace.serialize().splitlines()[2:]
    assert len(lines) == n
    for e, line in zip(entries, lines):
        payload = e.payload.hex() if e.payload else "-"
        assert line == f"{e.time}\t{e.sender}\t{e.receiver}\t{e.tag}\t{payload}\t{e.note or '-'}"
    assert type(entries) is list and entries == trace.entries is not entries


def test_honest_run_frame_sequence():
    trace = Simulator(honest_scenario(), seed=0).run()
    tags = [e.tag for e in trace.entries]
    assert tags == ["SecureActivation", "AuthRequest", "AuthAccept"]


def test_honest_run_reaches_authenticated():
    sim = Simulator(honest_scenario(), seed=0)
    sim.run()
    assert isinstance(sim.icds["icd-1"].state, Authenticated)


def test_same_seed_byte_identical_traces():
    a = Simulator(update_scenario(3), seed=3).run().serialize()
    b = Simulator(update_scenario(3), seed=3).run().serialize()
    assert a == b


def test_different_seeds_differ_in_update_flow():
    a = Simulator(update_scenario(3), seed=3).run().serialize()
    b = Simulator(update_scenario(3), seed=4).run().serialize()
    assert a != b  # nonces come from the seeded generator


def test_step_with_no_events_raises():
    sim = Simulator(Scenario(subscribers=[]), seed=0)
    with pytest.raises(NoEvents):
        sim.step()


def test_virtual_time_never_decreases():
    trace = Simulator(update_scenario(0), seed=0).run()
    times = [e.time for e in trace.entries]
    assert times == sorted(times)


class _Recorder:
    """An agent that logs each tick it gets and each frame it is handed,
    answering a frame with `reply` sent to the access point."""

    state_name = "recorder"

    def __init__(self, name, log, reply=None):
        self.name, self.log, self.reply = name, log, reply

    def tick(self, now):
        self.log.append((now, self.name))
        return Transition()

    def handle(self, sender, msg, now):
        self.log.append((now, self.name))
        return Transition(out=[(MAP, self.reply)] if self.reply else [])


# ("push", delay after now) or ("step",)
_ORDER_OPS = st.lists(
    st.one_of(st.tuples(st.just("push"), st.integers(0, 4)), st.tuples(st.just("step"))),
    max_size=60,
)


@given(_ORDER_OPS)
def test_events_run_in_time_then_push_order(ops):
    """Pushes at or after now, mixed with steps, come out in (time, push
    order), as from a heap keyed by (time, sequence number)."""
    sim = Simulator(Scenario(subscribers=[]), seed=0)
    log, reference = [], []
    for op in ops + [("step",)] * len(ops):
        if op[0] == "push":
            name = f"e{len(sim.agents)}"
            sim.agents[name] = _Recorder(name, log)
            at = sim.now + op[1]
            sim._push(at, name)
            heapq.heappush(reference, (at, len(sim.agents), name))
        elif reference:
            sim.step()
            at, _, name = heapq.heappop(reference)
            assert log[-1] == (at, name) and sim.now == at
        else:
            with pytest.raises(NoEvents):
                sim.step()
    assert not sim._heap and not sim._calendar


def test_push_before_now_raises():
    sim = Simulator(Scenario(subscribers=[]), seed=0)
    sim.agents["e"] = _Recorder("e", [])
    sim._push(5, "e")
    sim.step()
    with pytest.raises(ValueError):
        sim._push(4, "e")


def test_replies_sent_without_delay_follow_the_whole_broadcast():
    """A reply sent at delay 0 while a broadcast is delivered runs after
    every copy of that broadcast, not between them."""
    n = 5
    devices = [f"icd-{i}" for i in range(1, n + 1)]
    sc = Scenario(
        subscribers=[make_subscriber(i, icd_in=i + 1) for i in range(n)],
        schedule=[RotateMpc(at=10, targets=tuple(devices))],
        mpc_period=1,
    )
    sim = Simulator(sc, seed=0)
    log = []
    for name in devices:
        sim.agents[name] = _Recorder(name, log, reply=wire.SecureActivation(1))
    sim.agents[MAP] = _Recorder(MAP, log)
    trace = sim.run()
    assert [(e.time, e.sender, e.receiver) for e in trace.entries] == (
        [(10, WBRAC, d) for d in devices] + [(10, d, MAP) for d in devices]
    )


def _broadcast_to(targets, links=None, adversary=(), schedule=()):
    """Devices icd-1..icd-N (N the highest named) and one MPC broadcast at
    10 ms to `targets`."""
    n = max(int(t[4:]) for t in targets if t.startswith("icd-"))
    return Scenario(
        subscribers=[make_subscriber(i, icd_in=i + 1) for i in range(n)],
        links=links or {},
        schedule=[*schedule, RotateMpc(at=10, targets=tuple(targets))],
        adversary=list(adversary),
        mpc_period=1,
    )


def test_one_step_delivers_every_copy_of_a_broadcast_over_unlisted_links():
    devices = [f"icd-{i}" for i in range(1, 6)]
    sim = Simulator(_broadcast_to(devices), seed=0)
    sim.step()  # the rotation queues one burst
    assert sim.trace.notes == []
    sim.step()
    assert [(e.time, e.sender, e.receiver, e.tag) for e in sim.trace.entries] == [
        (10, WBRAC, d, "AccessParameterMessage") for d in devices
    ]
    assert {sim.icds[d].cfg.mpc for d in devices} == {sim.wbrac.mpc}
    assert not sim._heap


def test_a_burst_keeps_the_target_order_across_links_that_draw_and_delay():
    targets = ("icd-1", "icd-2", "icd-3", MAP)
    links = {(WBRAC, "icd-2"): LinkModel(0, drop_prob=0.5), (WBRAC, MAP): LinkModel(5)}
    sim = Simulator(_broadcast_to(targets, links), seed=0)
    sim.step()
    # icd-2's link draws, so every copy is queued on its own, in target order
    assert [e[1] for e in sim._calendar[10]] == ["icd-1", "icd-2", "icd-3"]
    assert [e[1] for e in sim._calendar[15]] == [MAP]
    trace = sim.run()
    assert [(e.time, e.receiver) for e in trace.entries] == [
        (10, "icd-1"), (10, "icd-2"), (10, "icd-3"), (15, MAP)
    ]


def test_a_capture_still_sees_one_frame_per_broadcast_target():
    devices = [f"icd-{i}" for i in range(1, 4)]
    sc = _broadcast_to(devices, adversary=[CaptureMatching(wire.AccessParameterMessage.TAG)])
    sim = Simulator(sc, seed=0)
    trace = sim.run()
    assert [(src, dst) for src, dst, _ in sim.captured] == [(WBRAC, d) for d in devices]
    assert [(e.receiver, e.note.split()[0]) for e in trace.entries] == [
        (d, "captured") for d in devices
    ]


def test_a_copy_made_just_before_a_burst_runs_to_the_same_trace():
    devices = [f"icd-{i}" for i in range(1, 5)]
    links = {(d, MAP): LinkModel(7) for d in devices}
    starts = [StartIcd(d, at=2 * i) for i, d in enumerate(devices)]
    sim = Simulator(_broadcast_to(devices, links, schedule=starts), seed=0)
    while type(sim._calendar[sim._heap[0]][sim._taken]) is not tuple:
        sim.step()
    clone = copy.deepcopy(sim)
    burst = sim._calendar[sim._heap[0]][sim._taken]
    assert clone._calendar[clone._heap[0]][clone._taken] == burst
    assert type(clone._calendar[clone._heap[0]][clone._taken][0]) is tuple
    assert clone.run().serialize() == sim.run().serialize()
    # the burst reached devices mid-flow, and their flows went on after it
    assert sim.trace.tags.count("AccessParameterMessage") == len(devices)
    assert "mpc-updated -> AwaitingAuthResult" in sim.trace.notes and sim.trace.times[-1] > 10


class _CopyByCopy(Simulator):
    """The reference of `Simulator._broadcast`: every copy of a broadcast
    goes through `_transmit`, in target order, as when each copy was an
    event of its own."""

    def _broadcast(self, targets, frame):
        raw = wire.encode(frame)
        for target in targets:
            self._transmit(WBRAC, target, raw, frame)


def _pending_copies(sim):
    """The calendar as values: per pending time in order, its events not
    yet stepped, each burst (a tuple) expanded into its copies and a copy
    shown as (src, dst, dropped, note, frame)."""
    shown = []
    for at in sorted(sim._heap):
        events = sim._calendar[at][sim._taken if at == sim._heap[0] else 0:]
        copies = []
        for e in events:
            if type(e) is tuple:
                targets, frame, _ = e
                copies.extend(("copy", WBRAC, t, False, "", frame) for t in targets)
            else:
                copies.append(("copy", *e[:5]) if type(e) is list else e)
        shown.append((at, copies))
    return shown


_PLAN_AGENTS = (MAP, "icd-1", "icd-2", "icd-3")
_PLAN_LINKS = st.one_of(
    st.none(),  # unlisted
    st.builds(LinkModel, st.integers(0, 3)),
    st.builds(LinkModel, st.integers(0, 3), st.sampled_from([0.5, 1.0])),
    st.builds(LinkModel, st.integers(0, 3), st.just(0.0), st.sampled_from([0.5, 1.0])),
)
_MPC_TAG = wire.AccessParameterMessage.TAG
_PLAN_HOOKS = st.sampled_from([
    [],
    [CaptureMatching(_MPC_TAG)],
    [CorruptBit(_MPC_TAG, 77)],
    [CaptureMatching(wire.ParameterUpdateOrder.TAG), ReplayCaptured(0, at=6)],
    [CaptureMatching(wire.AuthRequest.TAG)],  # hooks another tag only
])
_PLAN_TARGETS = st.lists(st.sampled_from(_PLAN_AGENTS), min_size=1, max_size=6).map(tuple)
_PLAN_BROADCASTS = st.lists(
    st.tuples(st.sampled_from([RotateMpc, SendParameterUpdate]), st.integers(0, 12), _PLAN_TARGETS),
    max_size=4,
)


@given(
    targets=_PLAN_TARGETS,
    links=st.tuples(*[_PLAN_LINKS] * len(_PLAN_AGENTS)),
    hooks=_PLAN_HOOKS,
    broadcasts=_PLAN_BROADCASTS,
    starts=st.lists(st.tuples(st.sampled_from(_PLAN_AGENTS[1:]), st.integers(0, 6)), max_size=4),
    seed=st.integers(0, 3),
)
def test_a_run_with_bursts_traces_and_draws_as_copy_by_copy(
    targets, links, hooks, broadcasts, starts, seed
):
    """A run whose broadcasts go by their plans gives the trace, the rng
    state and the captures of one whose every copy goes through
    `_transmit`, over scheduled broadcasts with repeated targets, links
    that delay, drop or duplicate, hooked and unhooked tags, starts and
    seeds.  Right after one broadcast, the calendar with its bursts
    expanded is the per-copy one."""
    sc = Scenario(
        subscribers=[make_subscriber(i, icd_in=i + 1) for i in range(3)],
        links={(WBRAC, a): link for a, link in zip(_PLAN_AGENTS, links) if link is not None},
        schedule=[StartIcd(d, at=at) for d, at in starts]
        + [kind(at=at, targets=to) for kind, at, to in broadcasts],
        adversary=hooks,
        mpc_period=1,
    )
    planned, reference = Simulator(sc, seed=seed), _CopyByCopy(sc, seed=seed)
    frame = wire.AccessParameterMessage(bytes(range(16)))
    planned._broadcast(targets, frame)
    reference._broadcast(targets, frame)
    assert _pending_copies(planned) == _pending_copies(reference)
    assert planned.rng._state == reference.rng._state
    assert planned.run().serialize() == reference.run().serialize()
    assert planned.rng._state == reference.rng._state
    assert planned.captured == reference.captured


def test_a_broadcast_plan_is_made_once_per_target_tuple():
    class CountingLinks(ReadOnlyLinks):
        gets = 0

        def get(self, key, default=None):
            self.gets += 1
            return super().get(key, default)

    targets = (MAP, "icd-1", "icd-2", "icd-3", "icd-1")
    links = CountingLinks({(WBRAC, MAP): LinkModel(2), (WBRAC, "icd-2"): LinkModel(1)})
    sc = Scenario(
        subscribers=[make_subscriber(i, icd_in=i + 1) for i in range(3)],
        links=links,
        adversary=[CaptureMatching(wire.ParameterUpdateOrder.TAG)],
    )
    assert sc.links is links
    sim = Simulator(sc, seed=0)
    mpc = wire.AccessParameterMessage(bytes(16))
    sim._broadcast(targets, mpc)
    assert links.gets == len(targets)  # the plan reads each target's link
    links.gets = 0
    sim._broadcast(targets, mpc)
    sim._broadcast(tuple(list(targets)), mpc)  # an equal tuple shares the plan
    assert links.gets == 0
    # a hooked tag skips the plan: every copy goes through `_transmit`,
    # which reads its link once
    sim._broadcast(targets, wire.ParameterUpdateOrder())
    assert links.gets == len(targets)
    assert list(sim._plans) == [targets]
    # each rotation queued a burst at 0 ms, then come the hooked copies
    at_0 = sim._calendar[0]
    assert [e[0] if type(e) is tuple else e[1] for e in at_0] == (
        [("icd-1", "icd-3", "icd-1")] * 3 + ["icd-1", "icd-3", "icd-1"]
    )
    # the three bursts share their group's one tuple of targets
    assert len({id(e[0]) for e in at_0[:3]}) == 1


def test_a_broadcast_over_a_link_that_draws_goes_copy_by_copy():
    class CountingLinks(ReadOnlyLinks):
        gets = 0

        def get(self, key, default=None):
            self.gets += 1
            return super().get(key, default)

    targets = ("icd-1", "icd-2", "icd-3")
    links = CountingLinks({(WBRAC, "icd-2"): LinkModel(0, dup_prob=1.0)})
    sim = Simulator(Scenario([make_subscriber(i, icd_in=i + 1) for i in range(3)], links), seed=0)
    mpc = wire.AccessParameterMessage(bytes(16))
    sim._broadcast(targets, mpc)
    # the plan stops at icd-2's link, then every copy reads its own
    assert links.gets == 2 + len(targets)
    assert sim._plans == {targets: None}
    links.gets = 0
    sim._broadcast(targets, mpc)
    assert links.gets == len(targets)  # the None plan is kept, not made again
    assert [(e[1], e[3]) for e in sim._calendar[0]] == 2 * [
        ("icd-1", ""), ("icd-2", ""), ("icd-2", "duplicate"), ("icd-3", "")
    ]


def test_unknown_agent_in_schedule():
    with pytest.raises(ScenarioError):
        Scenario(subscribers=[], schedule=[StartIcd("icd-9", 0)])


@pytest.mark.parametrize(
    "seed,reason",
    [
        (1.5, "seed 1.5 is not an int"),
        ("1", "seed '1' is not an int"),
        (None, "seed None is not an int"),
        (-1, "negative seed -1"),
    ],
    ids=["float", "str", "None", "negative"],
)
def test_a_seed_that_is_not_a_non_negative_int_is_rejected(seed, reason):
    with pytest.raises(ScenarioError, match=f"^{re.escape(reason)}$"):
        Simulator(Scenario(subscribers=[]), seed)


def test_drop_prob_one_records_dropped_and_receiver_untouched():
    sc = honest_scenario()
    sc = replace(sc, links={**sc.links, ("icd-1", "map-1"): LinkModel(drop_prob=1.0)})
    sim = Simulator(sc, seed=0)
    trace = sim.run()
    assert all("dropped" in e.note for e in trace.entries)
    assert trace.frame_count("AuthAccept") == 0


@pytest.mark.parametrize("drop", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_lossy_first_hop_auth_rate_matches_the_loss_model(drop):
    """With drop p on the device->MAP hop only, a device authenticates exactly
    when its AuthRequest arrives, so over n seeds the auth rate is binomial
    with mean 1 - p; it must lie within 4 sigma of that."""
    runs = 1000
    ok = 0
    for seed in range(runs):
        sc = Scenario(
            subscribers=[make_subscriber(seed)],
            schedule=[StartIcd("icd-1", at=0)],
            links={("icd-1", "map-1"): LinkModel(delay_ms=5, drop_prob=drop)},
            max_time=10_000,
        )
        sim = Simulator(sc, seed=seed)
        trace = sim.run()
        authenticated = isinstance(sim.icds["icd-1"].state, Authenticated)
        assert authenticated == (trace.frame_count("AuthRequest") == 1)
        ok += authenticated
    p = 1 - drop
    assert abs(ok / runs - p) <= 4 * math.sqrt(p * (1 - p) / runs)


def test_dup_prob_one_duplicates_each_send():
    sc = honest_scenario()
    sc = replace(sc, links={**sc.links, ("icd-1", "map-1"): LinkModel(dup_prob=1.0)})
    trace = Simulator(sc, seed=0).run()
    auth_requests = [e for e in trace.entries if e.tag == "AuthRequest"]
    assert len(auth_requests) == 2
    assert sum(1 for e in auth_requests if e.note.startswith("duplicate")) == 1


def test_frame_conservation():
    """Every sent frame shows up exactly once per delivery attempt: delivered,
    dropped, or duplicated-and-counted."""
    sc = update_scenario(0)
    lossy = LinkModel(drop_prob=0.3, dup_prob=0.3)
    sc = replace(sc, links={**sc.links, ("map-1", "icd-1"): lossy})
    trace = Simulator(sc, seed=5).run()
    for e in trace.entries:
        kinds = sum(("dropped" in e.note, e.note.startswith("duplicate")))
        assert kinds <= 1  # mutually exclusive accounting


def test_delayed_links_shift_delivery_times():
    sc = honest_scenario()
    delays = {("icd-1", "map-1"): LinkModel(delay_ms=40), ("map-1", "icd-1"): LinkModel(delay_ms=25)}
    sc = replace(sc, links={**sc.links, **delays})
    trace = Simulator(sc, seed=0).run()
    by_tag = {e.tag: e.time for e in trace.entries}
    assert by_tag["AuthRequest"] == 40
    assert by_tag["AuthAccept"] == 65


def test_unsolicited_frame_traced_as_unexpected():
    sc = replace(
        honest_scenario(),
        schedule=[],  # never start the device
        adversary=[Inject(wire.ChallengeAck(), to="icd-1", at=10, src="map-1")],
    )
    sim = Simulator(sc, seed=0)
    trace = sim.run()
    assert any("unexpected" in e.note for e in trace.entries)
    assert isinstance(sim.icds["icd-1"].state, Idle)


# -- adversary ---------------------------------------------------------------------


def test_replay_after_rotation_routes_to_mismatch():
    sc = replace(
        honest_scenario(),
        mpc_period=1,
        schedule=[
            StartIcd("icd-1", at=0),
            RotateMpc(at=100, targets=("map-1", "icd-1")),
        ],
        adversary=[CaptureMatching(wire.AuthRequest.TAG), ReplayCaptured(0, at=200)],
    )
    trace = Simulator(sc, seed=1).run()
    replayed = [e for e in trace.entries if "replayed" in e.note]
    assert len(replayed) == 1
    assert "mismatch MPC" in replayed[0].note
    assert "guid-match" not in replayed[0].note


def test_corrupt_response_order_triggers_rejection():
    sc = replace(
        update_scenario(0), adversary=[CorruptBit(wire.MapChallengeResponseOrder.TAG, bit_index=7)]
    )
    sim = Simulator(sc, seed=2)
    trace = sim.run()
    assert trace.frame_count("UpdateRejection") >= 1
    rec = sim.wbrac.registry[1]
    icd = sim.icds["icd-1"]
    assert rec.pending_sd_new is None  # rejection relayed and cleared
    assert icd.cfg.sd == sc.subscribers[0].sd  # nothing committed


def test_hooks_capture_every_armed_frame_and_corrupt_only_the_queued_ones():
    # three devices start in turn; every AuthRequest is captured, and the
    # two queued corrupt actions take the first two SecureActivation frames,
    # in queue order, while MPC broadcasts and the rest pass untouched
    ids = ("icd-1", "icd-2", "icd-3")
    sc = Scenario(
        subscribers=[make_subscriber(i, icd_in=10 + i) for i in range(3)],
        links={("icd-3", MAP): LinkModel(5, drop_prob=0.5)},
        mpc_period=1,
        schedule=[StartIcd(a, at=10 * i) for i, a in enumerate(ids)]
        + [RotateMpc(at=100, targets=(MAP, *ids))],
        adversary=[
            CaptureMatching(wire.AuthRequest.TAG),
            CorruptBit(wire.SecureActivation.TAG, 0),
            CorruptBit(wire.SecureActivation.TAG, 13),
        ],
    )
    sim = Simulator(sc, seed=3)
    entries = list(sim.run().entries)

    requests = [e for e in entries if e.tag == "AuthRequest"]
    assert len(requests) == 3
    assert all("captured" in e.note.split() for e in requests)
    assert [(src, dst) for src, dst, _ in sim.captured] == [(a, MAP) for a in ids]
    assert [raw[3:] for _, _, raw in sim.captured] == [e.payload for e in requests]

    activations = [e for e in entries if e.tag == "SecureActivation"]
    assert [e.sender for e in activations] == list(ids)
    sent = [(10 + i).to_bytes(8, "big") for i in range(3)]
    flipped = [
        bytes([sent[0][0] ^ 0x80]) + sent[0][1:],  # bit 0
        sent[1][:1] + bytes([sent[1][1] ^ 0x04]) + sent[1][2:],  # bit 13
        sent[2],
    ]
    assert [e.payload for e in activations] == flipped
    assert ["corrupted" in e.note.split() for e in activations] == [True, True, False]

    hooked = {id(e) for e in requests + activations[:2]}
    others = [e.note for e in entries if id(e) not in hooked]
    assert not [n for n in others if "captured" in n or "corrupted" in n]
    assert any(e.tag == "AccessParameterMessage" for e in entries)


def test_adversary_bytes_are_decoded_once_where_they_are_made(monkeypatch):
    # the corrupted SecureActivation is duplicated on its link and the
    # captured AuthRequest is replayed: the duplicate shares the corrupted
    # copy's frame, so one decode each for the corruption and the replay
    decoded = []
    decode = wire.decode
    monkeypatch.setattr(wire, "decode", lambda raw: decoded.append(raw[0]) or decode(raw))
    sc = honest_scenario()
    sc = replace(
        sc,
        links={**sc.links, ("icd-1", MAP): LinkModel(dup_prob=1.0)},
        adversary=[
            CorruptBit(wire.SecureActivation.TAG, 5),
            CaptureMatching(wire.AuthRequest.TAG),
            ReplayCaptured(0, at=100),
        ],
    )
    trace = Simulator(sc, seed=0).run()
    assert decoded == [wire.SecureActivation.TAG, wire.AuthRequest.TAG]
    # the trace of the same run when every adversary copy was decoded at delivery
    digest = hashlib.sha256(trace.serialize().encode()).hexdigest()
    assert digest == "ac58319834ddc028ff0626cd17f34d052381641d814440edf3d253a5dd0730f0"
    assert [e.note for e in trace.entries if e.tag == "SecureActivation"] == [
        "corrupted activation -> -",
        "duplicate activation -> -",
    ]
    assert_line_tag(trace, "corrupted activation -> -", "SecureActivation", 2)
    assert_line_tag(trace, "replayed guid-match -> -", "AuthRequest", 3)


def test_replay_of_nothing_is_recorded_noop():
    sc = replace(honest_scenario(), adversary=[ReplayCaptured(0, at=50)])
    trace = Simulator(sc, seed=0).run()
    assert any("no-op" in e.note for e in trace.entries)
    assert_line_tag(trace, "no-op: nothing captured", "replay", 1)


def test_a_reply_to_a_sender_that_is_no_agent_is_sunk():
    """A request injected in the name of no agent is answered, and the
    answer is traced as sunk, tagged with its frame's name."""
    request = wire.AuthRequest(icd_in=1, esn=2, guid=bytes(48))
    sc = replace(honest_scenario(), schedule=[], adversary=[Inject(request, to=MAP, at=5, src="eve")])
    trace = Simulator(sc, seed=0).run()
    assert list(zip(trace.senders, trace.receivers)) == [("eve", MAP), (MAP, "eve")]
    assert_line_tag(trace, "sink", "AccessDenied", 1)


def test_injected_frames_indistinguishable_to_receiver():
    sc = honest_scenario()
    sim = Simulator(sc, seed=0)
    sim.run()
    # capture an identical request by re-running with the adversary attached
    sc2 = replace(
        honest_scenario(),
        adversary=[CaptureMatching(wire.AuthRequest.TAG), ReplayCaptured(0, at=500)],
    )
    sim2 = Simulator(sc2, seed=0)
    trace = sim2.run()
    replayed = [e for e in trace.entries if "replayed" in e.note]
    assert replayed and "guid-match" in replayed[0].note  # accepted like the original


def test_device_obeys_only_its_access_point_and_the_wbrac_broadcasts():
    sc = Scenario(
        subscribers=[make_subscriber(0, icd_in=1), make_subscriber(1, icd_in=2)],
        mpc_period=1,
        schedule=[RotateMpc(at=10, targets=("icd-1",))],
        adversary=[
            Inject(wire.AccessParameterMessage(b"\x07" * 16), to="icd-1", at=20, src="icd-2"),
            Inject(wire.AccessDenied(1), to="icd-1", at=20, src="icd-2"),
        ],
    )
    sim = Simulator(sc, seed=0)
    provisioned = sim.icds["icd-1"].cfg.mpc
    trace = sim.run()
    icd = sim.icds["icd-1"]
    assert icd.cfg.mpc == sim.wbrac.mpc != provisioned  # the broadcast took
    assert isinstance(icd.state, Idle)
    assert [e.note for e in trace.entries if e.sender == "icd-2"] == [
        "injected unexpected AccessParameterMessage in Idle -> Idle",
        "injected unexpected AccessDenied in Idle -> Idle",
    ]


def test_wbrac_ignores_an_update_request_not_from_the_access_point():
    sim = Simulator(update_scenario(0), seed=0)
    trace = sim.run()
    assert trace.entries[0] == (
        5, "adversary", "wbrac", "UpdateRequest", (1).to_bytes(8, "big"),
        "injected unexpected UpdateRequest in - -> -",
    )
    icd = sim.icds["icd-1"]
    assert isinstance(icd.state, Authenticated)
    assert icd.cfg.sd == sim.wbrac.registry[1].sd


def test_start_of_a_busy_device_is_traced_as_skipped():
    sc = replace(
        honest_scenario(),
        schedule=[StartIcd("icd-1", at=10)],
        adversary=[Inject(wire.AccessDenied(1), to="icd-1", at=0, src="map-1")],
    )
    sim = Simulator(sc, seed=0)
    trace = sim.run()
    assert isinstance(sim.icds["icd-1"].state, Denied)
    assert trace.entries[-1] == (10, "-", "icd-1", "start", None, "skipped: start() in Denied")


def test_too_early_rotation_is_traced_as_skipped():
    sc = replace(
        honest_scenario(),
        schedule=[RotateMpc(at=10, targets=("map-1",)), RotateMpc(at=20, targets=("map-1",))],
    )
    trace = Simulator(sc, seed=0).run()
    assert trace.entries[-1] == (
        20, "wbrac", "-", "rotate", None, "skipped: rotation at 20, last at 10"
    )


def test_fault_in_rotation_propagates_out_of_run(monkeypatch):
    def rotate_mpc(self, now):
        raise RuntimeError("rotation fault")

    monkeypatch.setattr(WbracService, "rotate_mpc", rotate_mpc)
    sc = replace(honest_scenario(), schedule=[RotateMpc(at=10, targets=("map-1",))])
    sim = Simulator(sc, seed=0)
    with pytest.raises(RuntimeError, match="^rotation fault$"):
        sim.run()


def test_parameter_update_broadcast_keeps_counters_in_sync():
    sc = replace(
        honest_scenario(),
        schedule=[
            SendParameterUpdate(at=0, targets=("icd-1", "map-1")),
            StartIcd("icd-1", at=10),
        ],
    )
    sim = Simulator(sc, seed=0)
    sim.run()
    assert isinstance(sim.icds["icd-1"].state, Authenticated)
    assert sim.icds["icd-1"].cfg.rmc == (1).to_bytes(16, "big")
    assert sim.map.records[sc.subscribers[0].icd_in].expected_rmc == (1).to_bytes(16, "big")


# -- update flow at the sim level -----------------------------------------------------


def test_update_flow_syncs_sd_and_reauthenticates():
    sim = Simulator(update_scenario(0), seed=0)
    sim.run()
    icd = sim.icds["icd-1"]
    assert icd.cfg.sd == sim.wbrac.registry[1].sd
    assert isinstance(icd.state, Authenticated)


def test_timer_commit_with_exact_1000ms_round_trip():
    sc = update_scenario(0, start_at=600)
    sc = replace(
        sc,
        links={
            **sc.links,
            ("map-1", "wbrac"): LinkModel(delay_ms=500),
            ("wbrac", "map-1"): LinkModel(delay_ms=500),
        },
    )
    sim = Simulator(sc, seed=0)
    trace = sim.run()
    assert trace.frame_count("UpdateConfirmation") >= 1
    assert sim.icds["icd-1"].cfg.sd == sim.wbrac.registry[1].sd


def test_timer_expiry_with_1001ms_round_trip():
    sc = update_scenario(0, start_at=600)
    sc = replace(
        sc,
        links={
            **sc.links,
            ("map-1", "wbrac"): LinkModel(delay_ms=501),
            ("wbrac", "map-1"): LinkModel(delay_ms=500),
        },
    )
    sim = Simulator(sc, seed=0)
    trace = sim.run()
    assert trace.frame_count("UpdateConfirmation") == 0
    assert any(e.note == "update-timeout" for e in trace.entries)
    assert_line_tag(trace, "update-timeout", "tick", 1)
    assert sim.icds["icd-1"].cfg.sd == sc.subscribers[0].sd


def test_two_subscribers_authenticate_independently():
    sc = Scenario(
        subscribers=[make_subscriber(0, icd_in=1), make_subscriber(1, icd_in=2)],
        schedule=[StartIcd("icd-1", 0), StartIcd("icd-2", 5)],
    )
    sim = Simulator(sc, seed=0)
    trace = sim.run()
    assert trace.frame_count("AuthAccept") == 2
    assert all(isinstance(a.state, Authenticated) for a in sim.icds.values())


def test_trace_times_of_64_bits_and_more_are_kept():
    """The times column is an array of 4-byte integers until a time needs
    more, from 2**32 ms on; from then on it is a list, and the run still
    serializes."""
    for at in (2**32, 2**63 + 5):
        sc = replace(honest_scenario(), schedule=[StartIcd("icd-1", at=at)], max_time=2**64)
        sim = Simulator(sc, seed=0)
        trace = sim.run()
        assert type(trace.times) is list and trace.times[0] == at
        assert sim.icds["icd-1"].state_name == "Authenticated"
        entries = trace.entries
        assert [e.time for e in entries] == list(trace.times) and len(entries) == 3
        assert trace.serialize().splitlines()[2].startswith(f"{at}\ticd-1\tmap-1\tSecureActivation")
    at = 2**32 - 1
    sc = replace(honest_scenario(), schedule=[StartIcd("icd-1", at=at)], max_time=2**64)
    trace = Simulator(sc, seed=0).run()
    assert type(trace.times) is not list and list(trace.times) == [at] * 3
    assert type(Simulator(honest_scenario(), seed=0).run().times) is not list


def test_icds_is_a_read_only_view_of_the_devices_in_agents():
    sc = Scenario([make_subscriber(seed=n, icd_in=n) for n in (1, 2, 3)])
    sim = Simulator(sc, seed=0)
    assert list(sim.agents) == [WBRAC, MAP, "icd-1", "icd-2", "icd-3"]
    assert list(sim.icds) == list(device_ids(len(sc.subscribers))) == ["icd-1", "icd-2", "icd-3"]
    assert len(sim.icds) == 3
    for name in sim.icds:
        assert sim.icds[name] is sim.agents[name]
    for name in (WBRAC, MAP, "icd-4"):
        assert name not in sim.icds
        with pytest.raises(KeyError):
            sim.icds[name]
    assert isinstance(sim.icds, Mapping) and not isinstance(sim.icds, MutableMapping)
    with pytest.raises(TypeError):
        sim.icds["icd-4"] = sim.icds["icd-1"]


def test_each_result_gets_its_own_out_list():
    assert Transition().out is not Transition().out
    assert Transition().out == []


def test_results_compare_and_print_as_dataclasses():
    frame = wire.SecureActivation(1)
    assert Transition() == Transition([], None, "")
    assert Transition(out=[(MAP, frame)], tick_at=5) == Transition([(MAP, frame)], 5, "")
    assert Transition(note="a") != Transition(note="b")
    assert repr(Transition([(MAP, frame)], 5, "n")) == (
        "Transition(out=[('map-1', SecureActivation(icd_in=1))], tick_at=5, note='n')"
    )
    assert repr(MPC_UPDATED) == "Transition(out=[], tick_at=None, note='mpc-updated')"
