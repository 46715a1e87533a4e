"""The simulator keeps one copy of each agent name and trace note, its trace
holds no object per line, and its per-device records carry no per-instance
attribute dict.  A value an agent only stores is the frame's own bytes, so
the MPC is one object everywhere, a row's RMC is packed once per
distinct value, and a device's AAC is derived once for it and the access
point.  A sent frame is one bytes object, the one its encode returned,
that its copies, a capture of it and its trace lines share.  Sharing is
only a memory saving: a scenario whose equal names are
distinct objects runs the same."""

import gc
import tracemalloc
from dataclasses import replace

from conftest import assert_line_tag, make_subscriber
from test_trace_digests import SCENARIOS, lossy_broadcasts
from wgiot import wire
from wgiot.access_point import MapRecord
from wgiot.icd import IcdAgent, IcdConfig
from wgiot.scenario import load_scenario, parse_scenario
from wgiot.simnet import (
    LinkModel,
    RotateMpc,
    Scenario,
    Simulator,
    StartIcd,
    SubscriberSpec,
    Trace,
    TraceEntry,
)
from wgiot.wbrac import SubscriberRecord

SUBSCRIBERS = [make_subscriber(seed=n, icd_in=n) for n in (1, 2, 3)]
LINKS = {
    ("icd-1", "map-1"): LinkModel(delay_ms=3, drop_prob=0.2),
    ("map-1", "icd-2"): LinkModel(delay_ms=7),
    ("icd-3", "map-1"): LinkModel(dup_prob=0.5),
    ("map-1", "wbrac"): LinkModel(delay_ms=5),
    ("wbrac", "map-1"): LinkModel(delay_ms=5),
}
STARTS = {"icd-1": 0, "icd-2": 2, "icd-3": 4}

TEXT = "\n".join(
    [
        "wgiot-scenario v1",
        "[options]",
        "mpc_period = 1",
        "[registry]",
        *(
            f"{s.icd_in} {s.esn} {s.key.hex()} {s.sc_auth_k.hex()} {s.sd.hex()} {s.rmc}"
            for s in SUBSCRIBERS
        ),
        "[links]",
        "icd-1 map-1 delay=3 drop=0.2",
        "map-1 icd-2 delay=7",
        "icd-3 map-1 dup=0.5",
        "map-1 wbrac delay=5",
        "wbrac map-1 delay=5",
        "[schedule]",
        *(f"start {name} at {at}" for name, at in STARTS.items()),
        "rotate at 5 to map-1,icd-1,icd-2,icd-3",
    ]
) + "\n"


def _fresh(name: str) -> str:
    """An equal string that is a new object, as a name built at run time is."""
    return "".join([name[:2], name[2:]])


def test_parsed_names_notes_and_records_are_shared():
    sc = parse_scenario(TEXT)
    sim = Simulator(sc, seed=3)
    trace = sim.run()

    first = {}
    for e in trace.entries:
        assert e.note is first.setdefault(e.note, e.note)
    assert len(first) < len(trace.entries)

    key_of = {name: name for name in sim.icds}  # equal text -> the key object itself
    named = [name for pair in sc.links for name in pair]
    for item in sc.schedule:
        named += [item.agent_id] if isinstance(item, StartIcd) else list(item.targets)
    devices = [name for name in named if name.startswith("icd-")]
    assert sorted(set(devices)) == sorted(key_of)
    for name in devices:
        assert name is key_of[name]

    icd = sim.icds["icd-1"]
    records = {
        IcdAgent: icd,
        IcdConfig: icd.cfg,
        MapRecord: sim.map.records[1],
        SubscriberRecord: sim.wbrac.registry[1],
        SubscriberSpec: sc.subscribers[0],
    }
    for kind, record in records.items():
        assert type(record) is kind
        assert not hasattr(record, "__dict__"), kind.__name__
    # the key and the SD are the registry row's bytes, one object each that
    # the row, the WBRAC's record and the device's config share
    for name in ("sc_auth_k", "sd"):
        row_value = getattr(sc.subscribers[0], name)
        assert type(row_value) is bytes
        assert getattr(icd.cfg, name) is row_value, name
        assert getattr(sim.wbrac.registry[1], name) is row_value, name


def test_a_fleet_trace_holds_no_entry_objects():
    sim = Simulator(lossy_broadcasts(0), seed=0)
    trace = sim.run()
    gc.collect()
    assert len(trace.entries) > 300
    assert not [o for o in gc.get_objects() if type(o) is TraceEntry]


def test_the_mpc_and_the_provisions_are_the_frames_bytes(monkeypatch):
    sim = Simulator(parse_scenario(TEXT), seed=3)
    sim.run()
    mpc = sim.wbrac.mpc
    assert mpc != bytes(16)  # the rotation took
    assert sim.map.mpc is mpc
    for icd in sim.icds.values():
        assert icd.cfg.mpc is mpc

    # a committed update flow leaves the access point holding the material
    # of the response it relayed, as that frame's own bytes
    responses = []
    send = Simulator.send

    def spy_send(self, src, dst, msg):
        if type(msg) is wire.MapChallengeResponse:
            responses.append(msg)
        send(self, src, dst, msg)

    monkeypatch.setattr(Simulator, "send", spy_send)
    sim = Simulator(load_scenario(SCENARIOS / "update.scn"), seed=0)
    sim.run()
    (response,) = responses
    rec = sim.map.records[response.icd_in]
    assert rec.pending is None and sim.icds["icd-1"].state_name == "Authenticated"
    assert rec.expected_aac is response.expected_aac
    assert rec.wmap is response.wmap
    assert rec.challenge_sign is response.challenge_sign


def test_the_rmc_is_packed_once_per_value():
    """The device and the access point hold one 16-byte RMC object, and rows
    with an equal rmc share it."""
    rows = [*SUBSCRIBERS, replace(make_subscriber(seed=4, icd_in=4), rmc=5)]
    sim = Simulator(Scenario(rows), seed=0)
    icd_in = rows[0].icd_in
    assert sim.icds["icd-1"].cfg.rmc is sim.map.records[icd_in].expected_rmc
    assert sim.icds["icd-1"].cfg.rmc == bytes(16)
    assert sim.icds["icd-2"].cfg.rmc is sim.icds["icd-3"].cfg.rmc is sim.icds["icd-1"].cfg.rmc
    assert sim.icds["icd-4"].cfg.rmc == (5).to_bytes(16, "big")
    assert sim.icds["icd-4"].cfg.rmc is sim.map.records[4].expected_rmc


def test_the_aac_is_derived_once_and_shared_with_the_access_point():
    """Each device's config holds the AAC object that the WBRAC provisioned
    the access point with as the device's expected AAC."""
    sim = Simulator(lossy_broadcasts(0), seed=0)
    for icd in sim.icds.values():
        assert icd.cfg.aac is sim.map.records[icd.cfg.icd_in].expected_aac


def test_names_built_at_run_time_give_the_same_trace():
    parsed = parse_scenario(TEXT)
    built = Scenario(
        subscribers=[
            SubscriberSpec(s.icd_in, s.esn, s.key, s.sc_auth_k, s.sd, s.rmc) for s in SUBSCRIBERS
        ],
        links={(_fresh(src), _fresh(dst)): model for (src, dst), model in LINKS.items()},
        schedule=[
            *(StartIcd(_fresh(name), at=at) for name, at in STARTS.items()),
            RotateMpc(at=5, targets=tuple(map(_fresh, ("map-1", "icd-1", "icd-2", "icd-3")))),
        ],
        mpc_period=1,
    )
    assert built.links == parsed.links and tuple(built.schedule) == parsed.schedule
    assert built.schedule[0].agent_id is not parsed.schedule[0].agent_id

    want = Simulator(parsed, seed=3).run().serialize()
    assert Simulator(built, seed=3).run().serialize() == want


def test_the_copies_of_a_broadcast_share_one_payload():
    """Every copy of one broadcast is traced with the one bytes object of
    its encoding, delivered and dropped copies alike."""
    sc = Scenario(
        SUBSCRIBERS,
        links={("wbrac", "icd-2"): LinkModel(drop_prob=1.0)},
        schedule=[RotateMpc(at=5, targets=("map-1", "icd-1", "icd-2", "icd-3"))],
        mpc_period=1,
    )
    trace = Simulator(sc, seed=0).run()
    copies = [
        (note, raw)
        for sender, tag, note, raw in zip(trace.senders, trace.tags, trace.notes, trace.raws)
        if sender == "wbrac" and tag == "AccessParameterMessage"
    ]
    assert len(copies) == 4 and sum(note.startswith("dropped") for note, _ in copies) == 1
    assert len({id(raw) for _, raw in copies}) == 1


def test_every_traced_frame_is_the_bytes_its_encode_returned(monkeypatch):
    """The trace holds each frame's encoding itself, not a copy of its
    payload: every frame line's bytes are an object `wire.encode` returned."""
    returned = []  # keeps each object alive, so no id is reused
    encode = wire.encode

    def recording_encode(msg):
        raw = encode(msg)
        returned.append(raw)
        return raw

    sim = Simulator(lossy_broadcasts(0), seed=0)
    monkeypatch.setattr(wire, "encode", recording_encode)
    trace = sim.run()
    encoded = {id(raw) for raw in returned}
    raws = [raw for raw in trace.raws if raw is not None]
    assert len(raws) > 300 and "replayed" in " ".join(trace.notes)
    assert [raw for raw in raws if id(raw) not in encoded] == []


def test_a_capture_shares_its_bytes_with_its_copy_and_trace_line():
    """Each captured frame is the bytes object of the trace line its copy
    produced; the copies of one link arrive in the order they were sent.
    A replayed copy is traced with the captured object too."""
    sim = Simulator(lossy_broadcasts(0), seed=0)
    trace = sim.run()
    traced = {}  # (sender, receiver) -> the bytes of its captured copies' lines, in order
    replayed = []
    for sender, receiver, note, raw in zip(trace.senders, trace.receivers, trace.notes, trace.raws):
        words = note.split()
        if "captured" in words:
            traced.setdefault((sender, receiver), []).append(raw)
        elif "replayed" in words:
            replayed.append(raw)
    captured = {}
    for src, dst, raw in sim.captured:
        captured.setdefault((src, dst), []).append(raw)
    assert len(sim.captured) > 30 and replayed
    assert captured.keys() == traced.keys()
    for link, raws in captured.items():
        assert list(map(id, raws)) == list(map(id, traced[link])), link
    assert {id(raw) for raw in replayed} <= {id(raw) for _, _, raw in sim.captured}


def test_a_frame_line_costs_at_most_42_bytes():
    """A frame line is a 4-byte time and four references, and keeps no tag:
    20,000 lines that share one frame and one note take at most 42 bytes
    each, the columns' spare room included."""
    raw = wire.encode(wire.AuthAccept())
    note = "authenticated -> Authenticated"
    lines = 20_000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = Trace()
        for time in range(lines):
            trace.add(time, "map-1", "icd-1", "AuthAccept", raw, note)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.notes) == lines and trace.tags[-1] == "AuthAccept"
    assert used / lines <= 42


def test_the_simulator_shares_every_note_it_writes():
    """Dropped copies, duplicates, skipped starts and too-early rotations
    each give equal notes more than once, and each distinct text is one
    object; the trace itself keeps the note it is given."""
    sc = Scenario(
        SUBSCRIBERS,
        links={
            ("icd-1", "map-1"): LinkModel(drop_prob=1.0),
            ("map-1", "icd-2"): LinkModel(dup_prob=1.0),
            ("map-1", "icd-3"): LinkModel(dup_prob=1.0),
        },
        schedule=[
            *(StartIcd(name, at=0) for name in STARTS),
            StartIcd("icd-1", at=1),
            StartIcd("icd-1", at=2),
            RotateMpc(at=5, targets=("map-1",)),
            RotateMpc(at=6, targets=("map-1",)),
            RotateMpc(at=6, targets=("map-1",)),
        ],
        mpc_period=100,
    )
    trace = Simulator(sc, seed=0).run()
    notes = trace.notes
    for text in (
        "dropped",
        "duplicate unexpected AuthAccept in Authenticated -> Authenticated",
        "skipped: start() in AwaitingAuthResult",
        "skipped: rotation at 6, last at 5",
    ):
        assert notes.count(text) == 2, text
    # a frame line's tag is read from its frame, a line without one keeps its own
    for text, tag, count in (
        ("dropped", "SecureActivation", 2),
        ("authenticated -> Authenticated", "AuthAccept", 4),
        ("duplicate unexpected AuthAccept in Authenticated -> Authenticated", "AuthAccept", 4),
        ("skipped: start() in AwaitingAuthResult", "start", 2),
        ("skipped: rotation at 6, last at 5", "rotate", 2),
    ):
        assert_line_tag(trace, text, tag, count)
    first = {}
    for note in notes:
        assert note is first.setdefault(note, note)

    trace = Trace()
    given = [_fresh("a note"), _fresh("a note")]
    for note in given:
        trace.add(0, "-", "-", "-", None, note)
    assert trace.notes[0] is given[0] and trace.notes[1] is given[1]
