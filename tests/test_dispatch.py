"""Frame dispatch in the three agents: every frame type from every sender is
handled or noted as unexpected, the WBRAC obeys only the access point, each
update-flow frame reaches the flow of the device it names, whatever the
order, and frames.md's route list is rendered from the dispatch tables."""

import copy
import dataclasses
import random
from pathlib import Path

import pytest

from wgiot import wire
from wgiot.access_point import AWAITING_RESPONSE
from wgiot.icd import (
    AUTHENTICATED,
    AwaitingAuthResult,
    Denied,
    Idle,
    UpdateAwaitingAck,
    UpdateAwaitingConfirmation,
)
from wgiot.simnet import Inject, Scenario, Simulator, SubscriberSpec, route_table

# Frame types each agent has no handler for.
MAP_UNHANDLED = {
    wire.AuthAccept,
    wire.UpdateOrder,
    wire.ChallengeAck,
    wire.MapChallengeForward,
    wire.MapChallengeResponseOrder,
    wire.AuthenticationChallenge,
    wire.AccessDenied,
    wire.UpdateRequest,
}
WBRAC_HANDLED = {
    wire.UpdateRequest,
    wire.MapChallengeForward,
    wire.UpdateConfirmation,
    wire.UpdateRejection,
}
# The frames a device obeys from the access point: not ParameterUpdateOrder,
# which only the WBRAC broadcasts.
ICD_FROM_MAP = {
    wire.AccessParameterMessage,
    wire.AuthAccept,
    wire.UpdateOrder,
    wire.ChallengeAck,
    wire.MapChallengeResponseOrder,
    wire.AuthenticationChallenge,
    wire.AccessDenied,
}
# The network broadcasts, the only frames a device obeys from the WBRAC.
ICD_FROM_WBRAC = {wire.AccessParameterMessage, wire.ParameterUpdateOrder}
# Frames the WBRAC sends to the access point; the rest come from devices.
FROM_WBRAC = {
    wire.AccessParameterMessage,
    wire.ParameterUpdateOrder,
    wire.UpdateMessage,
    wire.MapChallengeResponse,
}


def simulator(icd_ins=(30, 10, 20), adversary=()) -> Simulator:
    r = random.Random(0)
    subscribers = [
        SubscriberSpec(icd_in, 2, r.randbytes(32), r.randbytes(16), r.randbytes(16))
        for icd_in in icd_ins
    ]
    return Simulator(Scenario(subscribers=subscribers, adversary=adversary), seed=0)


def random_frame(cls, r: random.Random) -> wire.WireMessage:
    values = {}
    for name, kind in cls.FIELDS:
        if isinstance(kind, tuple):
            values[name] = r.randbytes(kind[1])
        else:
            values[name] = r.getrandbits(64 if kind == "u64" else 8)
    return cls(**values)


def icd_states(r: random.Random):
    sd = r.randbytes(16)
    sign = r.randbytes(16)
    return [
        Idle(),
        AwaitingAuthResult(),
        UpdateAwaitingAck(sd, sign),
        UpdateAwaitingConfirmation(sd, sign, deadline=1000),
        AUTHENTICATED,
        Denied(),
    ]


@pytest.mark.parametrize("sender", ["wbrac", "icd-1", "icd-2", "adversary", "map-1"])
def test_every_frame_type_to_the_access_point(sender):
    r = random.Random(1)
    for cls in wire.MESSAGE_TYPES:
        sim = simulator()
        records, mpc = copy.deepcopy(sim.map.records), sim.map.mpc
        result = sim.map.handle(sender, random_frame(cls, r), 0)  # never raises
        # the access point reads a frame from any sender but the WBRAC, itself
        # included, as a device's
        if cls in MAP_UNHANDLED or (cls in FROM_WBRAC) != (sender == "wbrac"):
            assert result.note == f"unexpected {cls.__name__} in -"
            assert result.out == [] and result.tick_at is None
            assert sim.map.records == records and sim.map.mpc == mpc


def test_the_access_point_takes_a_frame_from_itself_for_a_device_frame():
    result = simulator().map.handle("map-1", wire.SecureActivation(30), 0)
    assert (result.note, result.out) == ("activation", [])


@pytest.mark.parametrize("sender", ["map-1", "icd-1", "adversary", "wbrac"])
def test_every_frame_type_to_the_wbrac(sender):
    r = random.Random(2)
    for cls in wire.MESSAGE_TYPES:
        frame = random_frame(cls, r)
        if "icd_in" in dict(cls.FIELDS):
            frame = dataclasses.replace(frame, icd_in=10)  # a registered device
        sim = simulator()
        registry = copy.deepcopy(sim.wbrac.registry)
        result = sim.wbrac.handle(sender, frame, 0)  # never raises
        if sender != "map-1" or cls not in WBRAC_HANDLED:
            assert result.note == f"unexpected {cls.__name__} in -"
            assert result.out == [] and sim.wbrac.registry == registry


@pytest.mark.parametrize("sender", ["map-1", "wbrac", "icd-2", "adversary"])
@pytest.mark.parametrize("state_index", range(6))
def test_every_frame_type_to_the_device_in_every_state(state_index, sender):
    handled = {"map-1": ICD_FROM_MAP, "wbrac": ICD_FROM_WBRAC}.get(sender, set())
    r = random.Random(3)
    for cls in wire.MESSAGE_TYPES:
        device = simulator().icds["icd-1"]
        device.state = icd_states(r)[state_index]
        name = device.state_name
        cfg = copy.deepcopy(device.cfg)
        result = device.handle(sender, random_frame(cls, r), 500)  # never raises
        if cls not in handled:
            assert result.note == f"unexpected {cls.__name__} in {name}"
            assert result.out == [] and device.state_name == name and device.cfg == cfg


@pytest.mark.parametrize(
    "src, note, rmc",
    [
        ("wbrac", "injected rmc-incremented -> Idle", 6),
        ("map-1", "injected unexpected ParameterUpdateOrder in Idle -> Idle", 5),
    ],
    ids=["wbrac", "map-1"],
)
def test_only_the_wbrac_moves_a_device_rmc_by_parameter_update_order(src, note, rmc):
    """The access point never sends ParameterUpdateOrder, so a copy from
    map-1 is unexpected and leaves the device's RMC as it was."""
    r = random.Random(0)
    row = SubscriberSpec(30, 2, r.randbytes(32), r.randbytes(16), r.randbytes(16), rmc=5)
    inject = Inject(wire.ParameterUpdateOrder(), to="icd-1", at=0, src=src)
    sim = Simulator(Scenario(subscribers=[row], adversary=[inject]), seed=0)
    assert sim.run().notes == [note]
    assert sim.icds["icd-1"].cfg.rmc == rmc.to_bytes(16, "big")


def test_update_frames_reach_the_device_they_name():
    sim = simulator()
    for icd_in, agent_id in ((30, "icd-1"), (10, "icd-2"), (20, "icd-3")):
        (_, update), = sim.wbrac.handle("map-1", wire.UpdateRequest(icd_in), 0).out
        (dst, _), = sim.map.handle("wbrac", update, 0).out
        assert dst == agent_id and sim.map.records[icd_in].pending is AWAITING_RESPONSE
    # responses in an order that is neither the flows' nor icd_in's
    for icd_in, dst_expected in ((20, "icd-3"), (30, "icd-1"), (10, "icd-2")):
        sign = random.Random(dst_expected).randbytes(16)
        response = wire.MapChallengeResponse(icd_in, sign, bytes(16), bytes(8), bytes(16))
        (dst, order), = sim.map.handle("wbrac", response, 0).out
        assert (dst, order) == (dst_expected, wire.MapChallengeResponseOrder(sign))
        assert sim.map.records[icd_in].pending is response
    for icd_in in (20, 99):  # answered already; not registered
        response = wire.MapChallengeResponse(icd_in, bytes(16), bytes(16), bytes(8), bytes(16))
        assert sim.map.handle("wbrac", response, 0).note == "unexpected MapChallengeResponse in -"

    registry = sim.wbrac.registry
    sd_before = {icd_in: rec.sd for icd_in, rec in registry.items()}
    new_sd_20 = registry[20].pending_sd_new
    assert sim.wbrac.handle("map-1", wire.UpdateConfirmation(20), 0).note == "committed"
    assert registry[20].sd == new_sd_20 and registry[20].pending_sd_new is None
    assert registry[10].pending_sd_new is not None and registry[30].pending_sd_new is not None
    assert sim.wbrac.handle("map-1", wire.UpdateRejection(30), 0).note == "rejected"
    assert registry[30].sd == sd_before[30] and registry[30].pending_sd_new is None
    assert registry[10].pending_sd_new is not None and registry[10].sd == sd_before[10]
    for frame in (wire.UpdateConfirmation(20), wire.UpdateRejection(99)):  # not pending; unknown
        result = sim.wbrac.handle("map-1", frame, 0)
        assert result.note == f"unexpected {type(frame).__name__} in -" and result.out == []
    assert registry[20].sd == new_sd_20 and registry[10].pending_sd_new is not None


# Update-flow frames, each from the sender its receiver obeys, that name no
# registered device (icd_in 999) or a device with no update in progress.
NOTHING_TO_ACT_ON = {
    "update-request-unknown": ("map-1", "wbrac", wire.UpdateRequest(999)),
    "challenge-nothing-pending": ("map-1", "wbrac", wire.MapChallengeForward(10, bytes(32))),
    "challenge-unknown": ("map-1", "wbrac", wire.MapChallengeForward(999, bytes(32))),
    "update-unknown": ("wbrac", "map-1", wire.UpdateMessage(999, bytes(16))),
}


@pytest.mark.parametrize(
    "src, dst, frame", NOTHING_TO_ACT_ON.values(), ids=NOTHING_TO_ACT_ON.keys()
)
def test_a_flow_frame_naming_no_device_or_no_flow_is_unexpected(src, dst, frame):
    """The agent answers it as it answers a frame it has no handler for:
    unexpected, nothing sent, nothing changed."""
    name = type(frame).__name__
    sim = simulator()
    registry, records = copy.deepcopy(sim.wbrac.registry), copy.deepcopy(sim.map.records)
    result = sim.agents[dst].handle(src, frame, 0)
    assert result.note == f"unexpected {name} in -"
    assert result.out == [] and result.tick_at is None
    assert sim.wbrac.registry == registry and sim.map.records == records
    # injected into a run, it is one trace line, and the run draws nothing
    sim = simulator(adversary=[Inject(frame, to=dst, at=0, src=src)])
    rng_state = sim.rng._state
    assert sim.run().notes == [f"injected unexpected {name} in - -> -"]
    assert sim.wbrac.registry == registry and sim.map.records == records
    assert sim.rng._state == rng_state


def test_frames_md_route_list_is_rendered_from_the_dispatch_tables():
    frames_md = (Path(__file__).resolve().parent.parent / "frames.md").read_text()
    assert f"\n\n{route_table()}\n" in frames_md
