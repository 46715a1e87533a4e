import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wgiot import crypto, wire
from wgiot.access_point import CHALLENGE, DENY, UPDATE, MapAgent, UnknownIcd, remedy

ICD_IN = 7
EXPECTED_AAC = b"\x0a" * 16
EXPECTED_MPC = b"\x0b" * 16
CHALLENGE_WMAP = b"\x0c" * 8
CHALLENGE_SIGN = b"\x0d" * 16


def make_map():
    agent = MapAgent(EXPECTED_MPC)
    agent.provision(
        "icd-1",
        crypto.Rmc(0),
        wire.MapProvision(ICD_IN, EXPECTED_AAC, CHALLENGE_WMAP, CHALLENGE_SIGN),
    )
    return agent


def auth_request(aac=EXPECTED_AAC, mpc=EXPECTED_MPC, rmc=0, icd_in=ICD_IN):
    guid = crypto.compose_guid(aac, mpc, crypto.Rmc(rmc))
    return wire.AuthRequest(icd_in=icd_in, esn=2, guid=guid)


# -- verification --------------------------------------------------------------


def test_verify_accepts_exact_match():
    assert make_map().verify(ICD_IN, auth_request()) == frozenset()


def test_verify_reports_exact_mismatch_subset():
    agent = make_map()
    assert agent.verify(ICD_IN, auth_request(rmc=1)) == frozenset({"RMC"})
    assert agent.verify(ICD_IN, auth_request(aac=bytes(16), mpc=bytes(16))) == frozenset(
        {"AAC", "MPC"}
    )


def test_verify_unknown_icd():
    with pytest.raises(UnknownIcd):
        make_map().verify(99, auth_request(icd_in=99))


def _lane(expected: bytes):
    """A GUID lane equal to the expected bytes, or drawn (and so usually not)."""
    return st.one_of(st.just(expected), st.binary(min_size=16, max_size=16))


@given(_lane(EXPECTED_AAC), _lane(EXPECTED_MPC), _lane(crypto.Rmc(0).packed))
def test_verify_matches_decomposed_guid_comparison(aac, mpc, rmc):
    agent = make_map()
    req = wire.AuthRequest(icd_in=ICD_IN, esn=2, guid=aac + mpc + rmc)
    # the comparison verify made before it compared packed bytes: the RMC as a counter
    rec = agent.records[ICD_IN]
    guid_aac, guid_mpc, guid_rmc = crypto.decompose_guid(req.guid)
    lanes = {
        "AAC": guid_aac == rec.prov.expected_aac,
        "MPC": guid_mpc == agent.mpc,
        "RMC": crypto.Rmc(int.from_bytes(guid_rmc, "big")) == rec.expected_rmc,
    }
    want = frozenset(name for name, equal in lanes.items() if not equal)
    assert agent.verify(ICD_IN, req) == want


def test_short_guid_is_malformed():
    agent = make_map()
    req = wire.AuthRequest(icd_in=ICD_IN, esn=2, guid=bytes(47))  # built without wire.decode
    with pytest.raises(crypto.BadLength, match=r"^guid must be 48 bytes, got 47$"):
        agent.verify(ICD_IN, req)
    result = agent.handle("icd-1", req, 0)
    assert result.note == "malformed guid: guid must be 48 bytes, got 47"
    assert result.out == []


# -- policy --------------------------------------------------------------------


def test_default_policy_covers_all_seven_subsets():
    fields = ("AAC", "MPC", "RMC")
    subsets = [
        frozenset(c)
        for n in (1, 2, 3)
        for c in __import__("itertools").combinations(fields, n)
    ]
    assert len(subsets) == 7
    actions = {s: remedy(s) for s in subsets}
    assert actions[frozenset({"AAC"})] == CHALLENGE
    assert actions[frozenset({"AAC", "MPC", "RMC"})] == DENY
    for s, action in actions.items():
        if s not in (frozenset({"AAC"}), frozenset({"AAC", "MPC", "RMC"})):
            assert action == UPDATE


# -- frame handling --------------------------------------------------------------


def test_matching_guid_single_accept_frame():
    result = make_map().handle("icd-1", auth_request(), 0)
    assert [type(m) for _, m in result.out] == [wire.AuthAccept]


def test_mpc_mismatch_requests_update_and_refreshes_mpc():
    result = make_map().handle("icd-1", auth_request(mpc=bytes(16)), 0)
    kinds = {(dst, type(m)) for dst, m in result.out}
    assert ("wbrac", wire.UpdateRequest) in kinds
    assert ("icd-1", wire.AccessParameterMessage) in kinds


def test_aac_mismatch_issues_unique_challenge():
    agent = make_map()
    result = agent.handle("icd-1", auth_request(aac=bytes(16)), 0)
    (dst, challenge), = result.out
    assert dst == "icd-1" and challenge == wire.AuthenticationChallenge(CHALLENGE_WMAP)
    assert agent.records[ICD_IN].challenge_outstanding


def test_all_fields_mismatched_denied():
    result = make_map().handle("icd-1", auth_request(bytes(16), bytes(16), 5), 0)
    (_, denied), = result.out
    assert isinstance(denied, wire.AccessDenied)


def test_unknown_icd_denied_with_reason():
    result = make_map().handle("icd-9", auth_request(icd_in=99), 0)
    (_, denied), = result.out
    assert denied == wire.AccessDenied(0x02)


def test_update_message_relays_rand_bit_identical():
    agent = make_map()
    rand = random.Random(4).randbytes(16)
    result = agent.handle("wbrac", wire.UpdateMessage(ICD_IN, rand), 0)
    (dst, order), = result.out
    assert dst == "icd-1" and order.rand == rand
    assert order.rmc == crypto.Rmc(0).packed  # the device's expected RMC
    assert agent.records[ICD_IN].pending is not None


def test_challenge_order_relay_fidelity():
    agent = make_map()
    to_map = random.Random(5).randbytes(32)
    result = agent.handle("icd-1", wire.MobileAccessChallengeOrder(to_map), 0)
    out = dict((type(m), (dst, m)) for dst, m in result.out)
    assert out[wire.ChallengeAck][0] == "icd-1"
    dst, fwd = out[wire.MapChallengeForward]
    assert dst == "wbrac" and fwd.to_map == to_map and fwd.icd_in == ICD_IN


def test_response_recorded_and_relayed():
    agent = make_map()
    agent.handle("wbrac", wire.UpdateMessage(ICD_IN, bytes(16)), 0)
    sig = b"\x99" * 16
    result = agent.handle("wbrac", wire.MapChallengeResponse(ICD_IN, sig), 0)
    (dst, order), = result.out
    assert dst == "icd-1" and order.auth_sign_map == sig
    assert agent.records[ICD_IN].pending.expected_sign == sig


def test_confirmation_applies_stashed_provision_and_clears_pending():
    agent = make_map()
    agent.handle("wbrac", wire.UpdateMessage(ICD_IN, bytes(16)), 0)
    prov = wire.MapProvision(ICD_IN, b"\x20" * 16, b"\x21" * 8, b"\x22" * 16)
    assert agent.handle("wbrac", prov, 0).note == "provision-stashed"
    result = agent.handle("icd-1", wire.UpdateConfirmation(ICD_IN), 0)
    assert ("wbrac", wire.UpdateConfirmation(ICD_IN)) in result.out
    rec = agent.records[ICD_IN]
    assert rec.pending is None
    assert rec.prov.expected_aac == b"\x20" * 16
    assert rec.prov.challenge_sign == b"\x22" * 16


def test_rejection_clears_pending_without_commit():
    agent = make_map()
    agent.handle("wbrac", wire.UpdateMessage(ICD_IN, bytes(16)), 0)
    prov = wire.MapProvision(ICD_IN, b"\x20" * 16, b"\x21" * 8, b"\x22" * 16)
    agent.handle("wbrac", prov, 0)
    result = agent.handle("icd-1", wire.UpdateRejection(ICD_IN), 0)
    assert result.out == [("wbrac", wire.UpdateRejection(ICD_IN))]
    rec = agent.records[ICD_IN]
    assert rec.pending is None
    assert rec.prov.expected_aac == EXPECTED_AAC  # stash discarded


def test_immediate_provision_applies_when_no_pending():
    agent = make_map()
    prov = wire.MapProvision(ICD_IN, b"\x30" * 16, b"\x31" * 8, b"\x32" * 16)
    assert agent.handle("wbrac", prov, 0).note == "provision-applied"
    assert agent.records[ICD_IN].prov.expected_aac == b"\x30" * 16


def test_challenge_answer_right_and_wrong():
    agent = make_map()
    agent.handle("icd-1", auth_request(aac=bytes(16)), 0)  # arms the challenge
    ok = agent.handle("icd-1", wire.AuthChallengeAnswer(CHALLENGE_SIGN), 1)
    assert [type(m) for _, m in ok.out] == [wire.AuthAccept]

    agent = make_map()
    agent.handle("icd-1", auth_request(aac=bytes(16)), 0)
    bad = agent.handle("icd-1", wire.AuthChallengeAnswer(bytes(16)), 1)
    (_, denied), = bad.out
    assert denied == wire.AccessDenied(0x01)
    assert not agent.records[ICD_IN].challenge_outstanding


def test_unsolicited_challenge_answer_never_accepts():
    agent = make_map()
    result = agent.handle("icd-1", wire.AuthChallengeAnswer(CHALLENGE_SIGN), 0)
    assert result.out == [] and result.note.startswith("unexpected")


def test_broadcasts_update_expectations():
    agent = make_map()
    agent.handle("wbrac", wire.AccessParameterMessage(b"\x44" * 16), 0)
    assert agent.mpc == b"\x44" * 16
    agent.handle("wbrac", wire.ParameterUpdateOrder(), 0)
    assert agent.records[ICD_IN].expected_rmc.counter == 1


def test_mpc_broadcast_reaches_every_provisioned_device():
    agent = make_map()
    agent.provision(
        "icd-2", crypto.Rmc(0), wire.MapProvision(8, EXPECTED_AAC, CHALLENGE_WMAP, CHALLENGE_SIGN)
    )
    new_mpc = b"\x44" * 16
    agent.handle("wbrac", wire.AccessParameterMessage(new_mpc), 0)
    for sender, icd_in in (("icd-1", ICD_IN), ("icd-2", 8)):
        assert agent.verify(icd_in, auth_request(mpc=new_mpc, icd_in=icd_in)) == frozenset()
        result = agent.handle(sender, auth_request(icd_in=icd_in), 0)  # the old MPC
        assert result.note == "mismatch MPC -> update"
        assert (sender, wire.AccessParameterMessage(new_mpc)) in result.out
        assert ("wbrac", wire.UpdateRequest(icd_in)) in result.out


def test_no_pending_leak_after_adversarial_interleavings():
    """pending is cleared by every confirmation/rejection; random frame soup
    never accepts without a GUID or signature match."""
    r = random.Random(8)
    for _ in range(10_000):
        agent = make_map()
        accepted = False
        for _ in range(6):
            roll = r.randrange(6)
            if roll == 0:
                res = agent.handle("icd-1", auth_request(aac=r.randbytes(16)), 0)
            elif roll == 1:
                res = agent.handle("wbrac", wire.UpdateMessage(ICD_IN, r.randbytes(16)), 0)
            elif roll == 2:
                sign = r.randbytes(16)
                res = agent.handle("wbrac", wire.MapChallengeResponse(ICD_IN, sign), 0)
            elif roll == 3:
                res = agent.handle("icd-1", wire.UpdateConfirmation(ICD_IN), 0)
                assert agent.records[ICD_IN].pending is None
            elif roll == 4:
                res = agent.handle("icd-1", wire.UpdateRejection(ICD_IN), 0)
                assert agent.records[ICD_IN].pending is None
            else:
                res = agent.handle("icd-1", wire.AuthChallengeAnswer(r.randbytes(16)), 0)
            accepted = accepted or any(isinstance(m, wire.AuthAccept) for _, m in res.out)
        assert not accepted


def test_wbrac_frames_from_a_device_are_ignored():
    agent = make_map()
    agent.provision(
        "icd-2", crypto.Rmc(0), wire.MapProvision(8, EXPECTED_AAC, CHALLENGE_WMAP, CHALLENGE_SIGN)
    )
    rec = agent.records[ICD_IN]
    for frame in (
        wire.MapProvision(ICD_IN, bytes(16), bytes(8), bytes(16)),
        wire.AccessParameterMessage(bytes(16)),
        wire.ParameterUpdateOrder(),
        wire.UpdateMessage(ICD_IN, bytes(16)),
        wire.MapChallengeResponse(ICD_IN, bytes(16)),
    ):
        result = agent.handle("icd-2", frame, 0)
        assert result.out == [] and result.note == f"unexpected {type(frame).__name__} in -"
    assert agent.mpc == EXPECTED_MPC
    assert rec.prov.expected_aac == EXPECTED_AAC and rec.prov.challenge_sign == CHALLENGE_SIGN
    assert rec.expected_rmc.counter == 0 and rec.pending is None
    forged = agent.handle("icd-2", auth_request(aac=bytes(16), mpc=bytes(16), icd_in=ICD_IN), 0)
    assert not any(isinstance(m, wire.AuthAccept) for _, m in forged.out)


def test_auth_request_for_another_devices_icd_in_is_denied():
    agent = make_map()
    agent.provision(
        "icd-2", crypto.Rmc(0), wire.MapProvision(8, EXPECTED_AAC, CHALLENGE_WMAP, CHALLENGE_SIGN)
    )
    for aac in (EXPECTED_AAC, bytes(16)):  # device 1's valid GUID, then one that arms a challenge
        result = agent.handle("icd-2", auth_request(aac=aac, icd_in=ICD_IN), 0)
        assert result.out == [("icd-2", wire.AccessDenied(0x02))]
        assert result.note == "unknown-icd"
    assert not agent.records[ICD_IN].challenge_outstanding
    assert agent.handle("icd-1", auth_request(icd_in=ICD_IN), 0).note == "guid-match"


def test_update_outcome_naming_another_device_is_unexpected():
    """A device's UpdateConfirmation or UpdateRejection counts only for its
    own icd_in, the rule AuthRequest follows."""
    agent = make_map()
    agent.provision(
        "icd-2", crypto.Rmc(0), wire.MapProvision(8, EXPECTED_AAC, CHALLENGE_WMAP, CHALLENGE_SIGN)
    )
    agent.handle("wbrac", wire.UpdateMessage(ICD_IN, bytes(16)), 0)
    prov = wire.MapProvision(ICD_IN, b"\x20" * 16, b"\x21" * 8, b"\x22" * 16)
    agent.handle("wbrac", prov, 0)
    rec = agent.records[ICD_IN]
    pending = rec.pending
    for sender, frame in (
        ("icd-2", wire.UpdateConfirmation(ICD_IN)),  # another device's id
        ("icd-2", wire.UpdateRejection(ICD_IN)),
        ("icd-1", wire.UpdateConfirmation(8)),  # the sender's own flow, another id
        ("icd-2", wire.UpdateConfirmation(8)),  # its own id, but no flow pending
    ):
        result = agent.handle(sender, frame, 0)
        assert result.out == [] and result.note == f"unexpected {type(frame).__name__} in -"
    assert rec.pending is pending and rec.pending.next_provision is prov
    assert rec.prov.expected_aac == EXPECTED_AAC
    assert agent.handle("icd-1", wire.UpdateConfirmation(ICD_IN), 0).note == "update-committed"


def test_challenge_response_finds_its_record_by_icd_in():
    agent = make_map()
    agent.provision(
        "icd-2", crypto.Rmc(0), wire.MapProvision(8, EXPECTED_AAC, CHALLENGE_WMAP, CHALLENGE_SIGN)
    )
    agent.handle("wbrac", wire.UpdateMessage(8, bytes(16)), 0)
    agent.handle("wbrac", wire.UpdateMessage(ICD_IN, bytes(16)), 0)
    for icd_in, dst in ((8, "icd-2"), (ICD_IN, "icd-1")):
        sign = bytes([icd_in]) * 16
        result = agent.handle("wbrac", wire.MapChallengeResponse(icd_in, sign), 0)
        assert result.out == [(dst, wire.MapChallengeResponseOrder(sign))]
    for icd_in in (8, 99):  # already answered; unknown
        result = agent.handle("wbrac", wire.MapChallengeResponse(icd_in, bytes(16)), 0)
        assert result.out == [] and result.note == "unexpected MapChallengeResponse in -"
