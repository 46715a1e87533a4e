import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wgiot import crypto, wire
from wgiot.access_point import (
    AUTH_ACCEPT,
    AWAITING_RESPONSE,
    CHALLENGE,
    CHALLENGE_ACK,
    DENY,
    NO_MISMATCH,
    UPDATE,
    MapAgent,
    UnknownIcd,
    remedy,
)

ICD_IN = 7
EXPECTED_AAC = b"\x0a" * 16
EXPECTED_MPC = b"\x0b" * 16
CHALLENGE_WMAP = b"\x0c" * 8
CHALLENGE_SIGN = b"\x0d" * 16


def packed_rmc(counter: int) -> bytes:
    return counter.to_bytes(16, "big")


def sign_challenge(icd_in: int, wmap: bytes) -> bytes:
    """The WBRAC's first-use signer, standing in: every registration pair's
    signature is CHALLENGE_SIGN."""
    return CHALLENGE_SIGN


def make_map(signer=sign_challenge):
    agent = MapAgent(EXPECTED_MPC, signer)
    agent.provision("icd-1", ICD_IN, packed_rmc(0), EXPECTED_AAC, CHALLENGE_WMAP)
    return agent


def add_icd_2(agent: MapAgent) -> None:
    agent.provision("icd-2", 8, packed_rmc(0), EXPECTED_AAC, CHALLENGE_WMAP)


def response(sign=b"\x99" * 16, icd_in=ICD_IN):
    """The WBRAC's response for icd_in, with post-update material of its own."""
    return wire.MapChallengeResponse(icd_in, sign, b"\x20" * 16, b"\x21" * 8, b"\x22" * 16)


def auth_request(aac=EXPECTED_AAC, mpc=EXPECTED_MPC, rmc=0, icd_in=ICD_IN):
    guid = crypto.compose_guid(aac, mpc, packed_rmc(rmc))
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


@given(_lane(EXPECTED_AAC), _lane(EXPECTED_MPC), _lane(packed_rmc(0)))
def test_verify_matches_decomposed_guid_comparison(aac, mpc, rmc):
    agent = make_map()
    req = wire.AuthRequest(icd_in=ICD_IN, esn=2, guid=aac + mpc + rmc)
    # the comparison verify made before it compared packed bytes: the RMC as a counter
    rec = agent.records[ICD_IN]
    guid_aac, guid_mpc, guid_rmc = crypto.decompose_guid(req.guid)
    lanes = {
        "AAC": guid_aac == rec.expected_aac,
        "MPC": guid_mpc == agent.mpc,
        "RMC": int.from_bytes(guid_rmc, "big") == int.from_bytes(rec.expected_rmc, "big"),
    }
    want = frozenset(name for name, equal in lanes.items() if not equal)
    assert agent.verify(ICD_IN, req) == want


def test_short_guid_is_malformed():
    agent = make_map()
    req = wire.AuthRequest(icd_in=ICD_IN, esn=2, guid=bytes(47))  # built without wire.decode
    with pytest.raises(crypto.BadLength, match=r"^guid must be 48 bytes, got 47$"):
        agent.verify(ICD_IN, req)


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


def test_every_accept_sends_the_one_shared_frame():
    """A match returns the one empty result, and the GUID match and the
    passed challenge both send the module's `AUTH_ACCEPT`."""
    agent = make_map()
    assert agent.verify(ICD_IN, auth_request()) is NO_MISMATCH == frozenset()
    (_, matched), = agent.handle("icd-1", auth_request(), 0).out
    agent.handle("icd-1", auth_request(aac=bytes(16)), 1)  # arms the challenge
    (_, passed), = agent.handle("icd-1", wire.AuthChallengeAnswer(CHALLENGE_SIGN), 2).out
    assert matched is passed is AUTH_ACCEPT
    (_, ack), _ = agent.handle("icd-1", wire.MobileAccessChallengeOrder(bytes(32)), 3).out
    assert ack is CHALLENGE_ACK


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
    assert order.rmc == packed_rmc(0)  # the device's expected RMC
    assert agent.records[ICD_IN].pending is AWAITING_RESPONSE


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
    frame = response()
    result = agent.handle("wbrac", frame, 0)
    (dst, order), = result.out
    assert dst == "icd-1" and order.auth_sign_map == frame.auth_sign_map
    rec = agent.records[ICD_IN]
    assert rec.pending is frame
    assert rec.expected_aac == EXPECTED_AAC  # not taken before the device confirms


def test_confirmation_applies_the_responses_material_and_clears_pending():
    agent = make_map()
    agent.handle("wbrac", wire.UpdateMessage(ICD_IN, bytes(16)), 0)
    frame = response()
    agent.handle("wbrac", frame, 0)
    agent.handle("icd-1", auth_request(aac=bytes(16)), 0)  # arms a challenge
    result = agent.handle("icd-1", wire.UpdateConfirmation(ICD_IN), 0)
    assert ("wbrac", wire.UpdateConfirmation(ICD_IN)) in result.out
    rec = agent.records[ICD_IN]
    assert rec.pending is None and not rec.challenge_outstanding
    assert rec.expected_aac is frame.expected_aac
    assert rec.wmap is frame.wmap
    assert rec.challenge_sign is frame.challenge_sign


def test_confirmation_before_any_response_keeps_the_material():
    agent = make_map()
    agent.handle("wbrac", wire.UpdateMessage(ICD_IN, bytes(16)), 0)
    # a device confirms only the order that carries the relayed response
    result = agent.handle("icd-1", wire.UpdateConfirmation(ICD_IN), 0)
    assert result.note == "unexpected UpdateConfirmation in -" and result.out == []
    rec = agent.records[ICD_IN]
    assert rec.pending is AWAITING_RESPONSE
    assert (rec.expected_aac, rec.wmap, rec.challenge_sign) == (
        EXPECTED_AAC,
        CHALLENGE_WMAP,
        None,
    )


def test_rejection_clears_pending_without_commit():
    agent = make_map()
    agent.handle("wbrac", wire.UpdateMessage(ICD_IN, bytes(16)), 0)
    agent.handle("wbrac", response(), 0)
    agent.handle("icd-1", auth_request(aac=bytes(16)), 0)  # arms a challenge
    result = agent.handle("icd-1", wire.UpdateRejection(ICD_IN), 0)
    assert result.out == [("wbrac", wire.UpdateRejection(ICD_IN))]
    rec = agent.records[ICD_IN]
    assert rec.pending is None
    # the response's material discarded, and the armed challenge kept
    assert (rec.expected_aac, rec.wmap, rec.challenge_sign) == (
        EXPECTED_AAC,
        CHALLENGE_WMAP,
        None,
    )
    assert rec.challenge_outstanding


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


def test_the_registration_pair_is_signed_once_at_its_first_answer():
    """The access point asks the signer for a registration pair's signature
    when an answer first needs it, not when it issues the challenge, and
    keeps it: a second answer signs nothing."""
    asked = []

    def signer(icd_in, wmap):
        asked.append((icd_in, wmap))
        return CHALLENGE_SIGN

    agent = make_map(signer)
    rec = agent.records[ICD_IN]
    agent.handle("icd-1", auth_request(aac=bytes(16)), 0)  # arms the challenge
    assert asked == [] and rec.challenge_sign is None
    ok = agent.handle("icd-1", wire.AuthChallengeAnswer(CHALLENGE_SIGN), 1)
    assert asked == [(ICD_IN, CHALLENGE_WMAP)] and rec.challenge_sign is CHALLENGE_SIGN
    assert ok.note == "challenge-passed"
    agent.handle("icd-1", auth_request(aac=bytes(16)), 2)
    bad = agent.handle("icd-1", wire.AuthChallengeAnswer(bytes(16)), 3)
    assert bad.note == "challenge-failed -> deny" and len(asked) == 1


def test_a_committed_responses_pair_needs_no_signer():
    """After an update commits, the record holds the response's signed
    pair, and an answer is checked against it without the signer."""

    def signer(icd_in, wmap):
        raise AssertionError("signed a pair that the response carried")

    agent = make_map(signer)
    frame = response()
    agent.handle("wbrac", wire.UpdateMessage(ICD_IN, bytes(16)), 0)
    agent.handle("wbrac", frame, 0)
    agent.handle("icd-1", wire.UpdateConfirmation(ICD_IN), 0)
    agent.handle("icd-1", auth_request(aac=bytes(16)), 1)  # arms the challenge
    result = agent.handle("icd-1", wire.AuthChallengeAnswer(frame.challenge_sign), 2)
    assert result.note == "challenge-passed"


def test_unsolicited_challenge_answer_never_accepts():
    agent = make_map()
    result = agent.handle("icd-1", wire.AuthChallengeAnswer(CHALLENGE_SIGN), 0)
    assert result.out == [] and result.note.startswith("unexpected")


def test_broadcasts_update_expectations():
    agent = make_map()
    agent.handle("wbrac", wire.AccessParameterMessage(b"\x44" * 16), 0)
    assert agent.mpc == b"\x44" * 16
    agent.handle("wbrac", wire.ParameterUpdateOrder(), 0)
    assert agent.records[ICD_IN].expected_rmc == packed_rmc(1)


def test_mpc_broadcast_reaches_every_provisioned_device():
    agent = make_map()
    add_icd_2(agent)
    new_mpc = b"\x44" * 16
    agent.handle("wbrac", wire.AccessParameterMessage(new_mpc), 0)
    for sender, icd_in in (("icd-1", ICD_IN), ("icd-2", 8)):
        assert agent.verify(icd_in, auth_request(mpc=new_mpc, icd_in=icd_in)) == frozenset()
        result = agent.handle(sender, auth_request(icd_in=icd_in), 0)  # the old MPC
        assert result.note == "mismatch MPC -> update"
        assert (sender, wire.AccessParameterMessage(new_mpc)) in result.out
        assert ("wbrac", wire.UpdateRequest(icd_in)) in result.out


def test_no_pending_leak_after_adversarial_interleavings():
    """pending is cleared by every rejection, and by every confirmation
    unless no response had been relayed; random frame soup never accepts
    without a GUID or signature match."""
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
                res = agent.handle("wbrac", response(r.randbytes(16)), 0)
            elif roll == 3:
                relayed = agent.records[ICD_IN].pending is not AWAITING_RESPONSE
                res = agent.handle("icd-1", wire.UpdateConfirmation(ICD_IN), 0)
                if relayed:
                    assert agent.records[ICD_IN].pending is None
                else:
                    assert agent.records[ICD_IN].pending is AWAITING_RESPONSE
            elif roll == 4:
                res = agent.handle("icd-1", wire.UpdateRejection(ICD_IN), 0)
                assert agent.records[ICD_IN].pending is None
            else:
                res = agent.handle("icd-1", wire.AuthChallengeAnswer(r.randbytes(16)), 0)
            accepted = accepted or any(isinstance(m, wire.AuthAccept) for _, m in res.out)
        assert not accepted


def test_wbrac_frames_from_a_device_are_ignored():
    agent = make_map()
    add_icd_2(agent)
    rec = agent.records[ICD_IN]
    for frame in (
        wire.AccessParameterMessage(bytes(16)),
        wire.ParameterUpdateOrder(),
        wire.UpdateMessage(ICD_IN, bytes(16)),
        response(bytes(16)),
    ):
        result = agent.handle("icd-2", frame, 0)
        assert result.out == [] and result.note == f"unexpected {type(frame).__name__} in -"
    assert agent.mpc == EXPECTED_MPC
    assert rec.expected_aac == EXPECTED_AAC and rec.challenge_sign is None
    assert rec.expected_rmc == packed_rmc(0) and rec.pending is None
    forged = agent.handle("icd-2", auth_request(aac=bytes(16), mpc=bytes(16), icd_in=ICD_IN), 0)
    assert not any(isinstance(m, wire.AuthAccept) for _, m in forged.out)


def test_auth_request_for_another_devices_icd_in_is_denied():
    agent = make_map()
    add_icd_2(agent)
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
    add_icd_2(agent)
    agent.handle("wbrac", wire.UpdateMessage(ICD_IN, bytes(16)), 0)
    relayed = response()
    agent.handle("wbrac", relayed, 0)
    rec = agent.records[ICD_IN]
    for sender, frame in (
        ("icd-2", wire.UpdateConfirmation(ICD_IN)),  # another device's id
        ("icd-2", wire.UpdateRejection(ICD_IN)),
        ("icd-1", wire.UpdateConfirmation(8)),  # the sender's own flow, another id
        ("icd-2", wire.UpdateConfirmation(8)),  # its own id, but no flow pending
    ):
        result = agent.handle(sender, frame, 0)
        assert result.out == [] and result.note == f"unexpected {type(frame).__name__} in -"
    assert rec.pending is relayed
    assert rec.expected_aac == EXPECTED_AAC
    assert agent.handle("icd-1", wire.UpdateConfirmation(ICD_IN), 0).note == "update-committed"


def test_challenge_response_finds_its_record_by_icd_in():
    agent = make_map()
    add_icd_2(agent)
    agent.handle("wbrac", wire.UpdateMessage(8, bytes(16)), 0)
    agent.handle("wbrac", wire.UpdateMessage(ICD_IN, bytes(16)), 0)
    for icd_in, dst in ((8, "icd-2"), (ICD_IN, "icd-1")):
        sign = bytes([icd_in]) * 16
        result = agent.handle("wbrac", response(sign, icd_in), 0)
        assert result.out == [(dst, wire.MapChallengeResponseOrder(sign))]
    for icd_in in (8, 99):  # already answered; unknown
        result = agent.handle("wbrac", response(bytes(16), icd_in), 0)
        assert result.out == [] and result.note == "unexpected MapChallengeResponse in -"
