"""Frame dispatch in the three agents: every frame type is handled or noted
as unexpected, the WBRAC obeys only the access point, and update-flow frames
that carry no device id go to the lowest pending icd_in."""

import copy
import dataclasses
import random

import pytest

from wgiot import crypto, wire
from wgiot.icd import (
    Authenticated,
    AwaitingAuthResult,
    Denied,
    Idle,
    UpdateAwaitingAck,
    UpdateAwaitingConfirmation,
)
from wgiot.simnet import Scenario, Simulator, SubscriberSpec

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
ICD_HANDLED = {
    wire.AccessParameterMessage,
    wire.ParameterUpdateOrder,
    wire.AuthAccept,
    wire.UpdateOrder,
    wire.ChallengeAck,
    wire.MapChallengeResponseOrder,
    wire.AuthenticationChallenge,
    wire.AccessDenied,
}
# Frames the WBRAC sends to the access point; the rest come from devices.
FROM_WBRAC = {
    wire.AccessParameterMessage,
    wire.ParameterUpdateOrder,
    wire.UpdateMessage,
    wire.MapChallengeResponse,
    wire.MapProvision,
}


def simulator(icd_ins=(30, 10, 20)) -> Simulator:
    r = random.Random(0)
    subscribers = [
        SubscriberSpec(icd_in, 2, r.randbytes(32), r.randbytes(16), r.randbytes(16))
        for icd_in in icd_ins
    ]
    return Simulator(Scenario(subscribers=subscribers), seed=0)


def random_frame(cls, r: random.Random) -> wire.WireMessage:
    values = {}
    for name, kind in cls.FIELDS:
        if isinstance(kind, tuple):
            values[name] = r.randbytes(kind[1])
        else:
            values[name] = r.getrandbits(64 if kind == "u64" else 8)
    return cls(**values)


def icd_states(r: random.Random):
    sd = crypto.SdPair(r.randbytes(16))
    sign = r.randbytes(16)
    return [
        Idle(),
        AwaitingAuthResult(),
        UpdateAwaitingAck(sd, sign),
        UpdateAwaitingConfirmation(sd, sign, deadline=1000),
        Authenticated(r.randbytes(16)),
        Denied(),
    ]


def test_every_frame_type_to_the_access_point():
    r = random.Random(1)
    for cls in wire.MESSAGE_TYPES:
        for sender in ("wbrac", "icd-1", "icd-2"):
            simulator().map.handle(sender, random_frame(cls, r), 0)  # never raises
        if cls in MAP_UNHANDLED:
            sender = "wbrac" if cls in FROM_WBRAC else "icd-1"
            result = simulator().map.handle(sender, random_frame(cls, r), 0)
            assert result.note == f"unexpected {cls.__name__} in -"
            assert result.out == [] and result.tick_at is None


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


@pytest.mark.parametrize("state_index", range(6))
def test_every_frame_type_to_the_device_in_every_state(state_index):
    r = random.Random(3)
    for cls in wire.MESSAGE_TYPES:
        device = simulator().icds["icd-1"]
        device.state = icd_states(r)[state_index]
        name = device.state_name
        result = device.handle("map-1", random_frame(cls, r), 500)  # never raises
        if cls not in ICD_HANDLED:
            assert result.note == f"unexpected {cls.__name__} in {name}"
            assert result.out == [] and device.state_name == name


def test_update_frames_without_device_id_go_to_lowest_pending_icd_in():
    sim = simulator()
    for icd_in, agent_id in ((30, "icd-1"), (10, "icd-2"), (20, "icd-3")):
        (_, update), = sim.wbrac.handle("map-1", wire.UpdateRequest(icd_in), 0).out
        (dst, _), = sim.map.handle("wbrac", update, 0).out
        assert dst == agent_id and sim.map.records[icd_in].pending is not None
    for dst_expected in ("icd-2", "icd-3", "icd-1"):
        sign = random.Random(dst_expected).randbytes(16)
        (dst, order), = sim.map.handle("wbrac", wire.MapChallengeResponse(sign), 0).out
        assert (dst, order) == (dst_expected, wire.MapChallengeResponseOrder(sign))
    assert sim.map.handle("wbrac", wire.MapChallengeResponse(bytes(16)), 0).note == (
        "unexpected MapChallengeResponse in -"
    )

    registry = sim.wbrac.registry
    sd_before = {icd_in: rec.sd for icd_in, rec in registry.items()}
    new_sd_10 = registry[10].pending_sd_new
    assert sim.wbrac.handle("map-1", wire.UpdateConfirmation(), 0).note == "committed"
    assert registry[10].sd == new_sd_10 and registry[10].pending_sd_new is None
    assert registry[20].pending_sd_new is not None and registry[30].pending_sd_new is not None
    assert sim.wbrac.handle("map-1", wire.UpdateRejection(), 0).note == "rejected"
    assert registry[20].sd == sd_before[20] and registry[20].pending_sd_new is None
    assert registry[30].pending_sd_new is not None
