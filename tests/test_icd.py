import copy
import random
from pathlib import Path

import pytest

import prf_oracle
from wgiot import crypto, wire
from wgiot.crypto import WBRAC_ID
from wgiot.icd import (
    AUTHENTICATED,
    AWAITING_AUTH_RESULT,
    CONFIRM_TIMEOUT_MS,
    Authenticated,
    AwaitingAuthResult,
    Denied,
    IcdAgent,
    IcdConfig,
    Idle,
    UpdateAwaitingAck,
    UpdateAwaitingConfirmation,
)
from wgiot.rng import SimRng
from wgiot.scenario import load_scenario
from wgiot.simnet import Simulator, SubscriberSpec

ESN = 0x1111
ICD_IN = 0x2222


def packed_rmc(counter: int) -> bytes:
    return counter.to_bytes(16, "big")


def make_row(seed=0) -> tuple[SubscriberSpec, bytes]:
    """A registry row drawn from `seed`, and the MPC its device last heard."""
    r = random.Random(seed)
    row = SubscriberSpec(ICD_IN, ESN, r.randbytes(32), r.randbytes(16), r.randbytes(16))
    return row, r.randbytes(16)


def make_agent(seed=0):
    """The device of `make_row(seed)`, built from the row as the simulator builds it."""
    row, mpc = make_row(seed)
    aac = crypto.authenticate_signature(row.sd, row.esn, row.icd_in, row.sc_auth_k)
    cfg = IcdConfig(row.icd_in, row.esn, row.sc_auth_k, row.sd, aac, mpc, packed_rmc(row.rmc))
    return IcdAgent(cfg, SimRng(seed))


def drive_to_confirmation(agent, rand=bytes(16), t0=0, rmc=0):
    """Hand-executed update script: order, challenge, ack."""
    result = agent.handle("map-1", wire.UpdateOrder(rand, packed_rmc(rmc)), t0)
    assert isinstance(agent.state, UpdateAwaitingAck)
    (_, challenge), = result.out
    assert isinstance(challenge, wire.MobileAccessChallengeOrder)
    agent.handle("map-1", wire.ChallengeAck(), t0)
    assert isinstance(agent.state, UpdateAwaitingConfirmation)
    return agent.state.sd_new, agent.state.local_sign


def test_start_emits_activation_then_guid():
    agent = make_agent()
    result = agent.start(0)
    assert [type(m) for _, m in result.out] == [wire.SecureActivation, wire.AuthRequest]
    req = result.out[1][1]
    assert len(wire.encode(req)) == 3 + 64
    aac, mpc, rmc = crypto.decompose_guid(req.guid)
    assert mpc == agent.cfg.mpc and rmc == agent.cfg.rmc
    assert aac == prf_oracle.aac(agent.cfg.sd, ESN, ICD_IN, agent.cfg.sc_auth_k)
    assert isinstance(agent.state, AwaitingAuthResult)


def test_start_twice_returns_a_skip_note():
    agent = make_agent()
    agent.start(0)
    cfg = copy.deepcopy(agent.cfg)
    result = agent.start(1)
    assert result.note == "skipped: start() in AwaitingAuthResult"
    assert result.out == [] and result.tick_at is None
    assert agent.state is AWAITING_AUTH_RESULT and agent.cfg == cfg


def test_unsolicited_frame_is_dropped():
    agent = make_agent()
    result = agent.handle("map-1", wire.ChallengeAck(), 0)
    assert result.out == [] and result.note.startswith("unexpected")
    assert isinstance(agent.state, Idle)


def test_auth_accept_derives_session_key():
    agent = make_agent()
    agent.start(0)
    agent.handle("map-1", wire.AuthAccept(), 5)
    assert isinstance(agent.state, Authenticated)
    assert agent.session == prf_oracle.session_key(agent.cfg.sd[8:])


def test_the_session_key_derives_from_the_committed_sd():
    """update.scn commits a new SD and then re-authenticates: the session
    key is the committed SD's, which the WBRAC holds too, not the
    registry row's."""
    scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "update.scn")
    sim = Simulator(scenario, seed=0)
    trace = sim.run()
    agent = sim.icds["icd-1"]
    assert trace.frame_count("UpdateConfirmation") > 0 and agent.state is AUTHENTICATED
    row_sd = scenario.subscribers[0].sd
    assert agent.cfg.sd == sim.wbrac.registry[agent.cfg.icd_in].sd != row_sd
    assert agent.session == prf_oracle.session_key(agent.cfg.sd[8:])
    assert agent.session != prf_oracle.session_key(row_sd[8:])


def test_an_update_while_authenticated_keys_the_next_session_from_the_committed_sd():
    """An update order ends the session; the key is back only once the
    device is accepted again, and then from the committed SD."""
    agent = make_agent()
    agent.start(0)
    agent.handle("map-1", wire.AuthAccept(), 5)
    old_key = agent.session
    assert old_key == prf_oracle.session_key(agent.cfg.sd[8:])
    sd_new, local_sign = drive_to_confirmation(agent, rand=b"\x42" * 16, t0=10)
    assert agent.session is None
    agent.handle("map-1", wire.MapChallengeResponseOrder(local_sign), 20)
    assert agent.state is AWAITING_AUTH_RESULT and agent.session is None
    agent.handle("map-1", wire.AuthAccept(), 30)
    assert agent.state is AUTHENTICATED and agent.cfg.sd == sd_new
    assert agent.session == prf_oracle.session_key(sd_new[8:]) != old_key


def test_a_second_accept_is_unexpected_and_keeps_the_session_key():
    agent = make_agent()
    agent.start(0)
    agent.handle("map-1", wire.AuthAccept(), 5)
    key = agent.session
    result = agent.handle("map-1", wire.AuthAccept(), 6)
    assert result.out == [] and result.note == "unexpected AuthAccept in Authenticated"
    assert agent.state is AUTHENTICATED and agent.session == key


def test_the_session_key_is_none_in_every_other_state():
    agent = make_agent()
    assert agent.state_name == "Idle" and agent.session is None
    agent.start(0)
    assert agent.state_name == "AwaitingAuthResult" and agent.session is None
    agent.handle("map-1", wire.UpdateOrder(bytes(16), packed_rmc(0)), 0)
    assert agent.state_name == "UpdateAwaitingAck" and agent.session is None
    agent.handle("map-1", wire.ChallengeAck(), 0)
    assert agent.state_name == "UpdateAwaitingConfirmation" and agent.session is None
    agent.handle("map-1", wire.AccessDenied(1), 0)
    assert agent.state_name == "Denied" and agent.session is None


def test_access_parameter_and_update_order_bookkeeping():
    agent = make_agent()
    agent.handle("map-1", wire.AccessParameterMessage(b"\x07" * 16), 0)
    assert agent.cfg.mpc == b"\x07" * 16
    agent.handle("wbrac", wire.ParameterUpdateOrder(), 0)
    assert agent.cfg.rmc == packed_rmc(1)


def test_matching_confirmation_commits_once():
    agent = make_agent()
    old_sd = agent.cfg.sd
    sd_new, local_sign = drive_to_confirmation(agent)
    result = agent.handle("map-1", wire.MapChallengeResponseOrder(local_sign), 10)
    assert result.out[0] == ("map-1", wire.UpdateConfirmation(ICD_IN))
    assert [type(m) for _, m in result.out] == [wire.UpdateConfirmation, wire.AuthRequest]
    assert agent.cfg.sd == sd_new != old_sd
    assert isinstance(agent.state, AwaitingAuthResult)


@pytest.mark.parametrize("broadcasts", [0, 2])  # one lost, one duplicated
def test_update_order_sets_the_rmc_the_access_point_expects(broadcasts):
    """A device that missed a ParameterUpdateOrder, or got it twice, takes
    the access point's RMC from the UpdateOrder, so its next GUID carries it."""
    agent = make_agent()
    for _ in range(broadcasts):
        agent.handle("wbrac", wire.ParameterUpdateOrder(), 0)
    _, local_sign = drive_to_confirmation(agent, rmc=1)
    assert agent.cfg.rmc == packed_rmc(1)
    result = agent.handle("map-1", wire.MapChallengeResponseOrder(local_sign), 10)
    (_, req), = [(dst, m) for dst, m in result.out if isinstance(m, wire.AuthRequest)]
    assert crypto.decompose_guid(req.guid)[2] == packed_rmc(1)


def test_mismatching_confirmation_rejects():
    agent = make_agent()
    old_sd = agent.cfg.sd
    _, local_sign = drive_to_confirmation(agent)
    bad = bytes(16) if local_sign != bytes(16) else b"\x01" * 16
    result = agent.handle("map-1", wire.MapChallengeResponseOrder(bad), 10)
    assert result.out == [("map-1", wire.UpdateRejection(ICD_IN))]
    assert agent.cfg.sd == old_sd
    assert isinstance(agent.state, Idle)


def test_update_sd_matches_oracle_chain():
    agent = make_agent()
    rand = b"\x42" * 16
    sd_new, local_sign = drive_to_confirmation(agent, rand=rand)
    k = agent.cfg.sc_auth_k
    aac_from_rand = prf_oracle.aac(rand, ESN, ICD_IN, k)
    assert sd_new == prf_oracle.sd_gen(aac_from_rand, ESN, k)


def test_timer_inclusive_boundary():
    agent = make_agent()
    sd_new, local_sign = drive_to_confirmation(agent, t0=0)
    deadline = agent.state.deadline
    assert deadline == CONFIRM_TIMEOUT_MS
    # tick at exactly the deadline: still in time
    agent.tick(deadline)
    assert isinstance(agent.state, UpdateAwaitingConfirmation)
    result = agent.handle("map-1", wire.MapChallengeResponseOrder(local_sign), deadline)
    assert any(isinstance(m, wire.UpdateConfirmation) for _, m in result.out)
    assert agent.cfg.sd == sd_new


def test_timer_expiry_discards_without_frames():
    agent = make_agent()
    old_sd = agent.cfg.sd
    _, local_sign = drive_to_confirmation(agent, t0=0)
    deadline = agent.state.deadline
    result = agent.tick(deadline + 1)
    assert result.out == [] and result.note == "update-timeout"
    assert isinstance(agent.state, Idle)
    assert agent.cfg.sd == old_sd
    # a late confirmation can no longer commit
    late = agent.handle("map-1", wire.MapChallengeResponseOrder(local_sign), deadline + 2)
    assert late.out == []
    assert agent.cfg.sd == old_sd


def test_late_confirmation_without_tick_still_discards():
    agent = make_agent()
    old_sd = agent.cfg.sd
    _, local_sign = drive_to_confirmation(agent, t0=0)
    result = agent.handle("map-1", wire.MapChallengeResponseOrder(local_sign), CONFIRM_TIMEOUT_MS + 1)
    assert result.out == [] and result.note == "update-timeout"
    assert agent.cfg.sd == old_sd and isinstance(agent.state, Idle)


def test_unique_challenge_answer():
    agent = make_agent()
    wmap = b"\x5a" * 8
    result = agent.handle("map-1", wire.AuthenticationChallenge(wmap), 0)
    (_, answer), = result.out
    composite = wmap + (WBRAC_ID & 0xFFFF).to_bytes(2, "big")
    assert answer.auth_sign_map == prf_oracle.authz(agent.cfg.sd, composite, ESN, ICD_IN)
    assert isinstance(agent.state, Idle)  # state unchanged


def test_access_denied_is_terminal():
    agent = make_agent()
    agent.handle("map-1", wire.AccessDenied(1), 0)
    assert isinstance(agent.state, Denied)


@pytest.mark.parametrize("sender", ["icd-2", "wbrac", "adversary"])
def test_access_denied_only_from_the_access_point(sender):
    agent = make_agent()
    result = agent.handle(sender, wire.AccessDenied(1), 0)
    assert result.note == "unexpected AccessDenied in Idle"
    assert isinstance(agent.state, Idle)


def test_handle_total_over_all_tags():
    # every frame type is either handled or dropped as unexpected; never raises
    agent = make_agent()
    r = random.Random(5)
    for cls in wire.MESSAGE_TYPES:
        values = {}
        for name, kind in cls.FIELDS:
            values[name] = r.getrandbits(64 if kind == "u64" else 8) if not isinstance(
                kind, tuple
            ) else r.randbytes(kind[1])
        agent.handle("map-1", cls(**values), 0)


def test_single_commit_over_random_interleavings():
    """cfg.sd changes only on a matching confirmation order, never on timeout
    or rejection, across randomized message/tick sequences."""
    r = random.Random(11)
    for trial in range(10_000):
        agent = make_agent(seed=trial % 50)
        now = 0
        for _ in range(8):
            now += r.randrange(0, 700)
            sd_before = agent.cfg.sd
            state_before = agent.state
            if r.random() < 0.2:
                agent.tick(now)
                assert agent.cfg.sd == sd_before
                continue
            choice = r.randrange(5)
            if choice == 0:
                msg = wire.UpdateOrder(r.randbytes(16), r.randbytes(16))
            elif choice == 1:
                msg = wire.ChallengeAck()
            elif choice == 2 and isinstance(state_before, UpdateAwaitingConfirmation) and r.random() < 0.5:
                msg = wire.MapChallengeResponseOrder(state_before.local_sign)
            elif choice == 2:
                msg = wire.MapChallengeResponseOrder(r.randbytes(16))
            elif choice == 3:
                msg = wire.AuthAccept()
            else:
                msg = wire.UpdateRejection(ICD_IN)
            result = agent.handle("map-1", msg, now)
            if agent.cfg.sd != sd_before:
                assert isinstance(msg, wire.MapChallengeResponseOrder)
                assert isinstance(state_before, UpdateAwaitingConfirmation)
                assert msg.auth_sign_map == state_before.local_sign
                assert now <= state_before.deadline
                assert any(isinstance(m, wire.UpdateConfirmation) for _, m in result.out)


def test_no_key_material_in_outbound_frames():
    for seed in range(25):
        row, _ = make_row(seed)
        agent = make_agent(seed)
        assert (agent.cfg.sc_auth_k, agent.cfg.sd) == (row.sc_auth_k, row.sd)
        secrets = [row.sc_auth_k, row.sd, row.sd[:8], row.sd[8:], row.key]
        payloads = []
        result = agent.start(0)
        payloads += [wire.encode(m) for _, m in result.out]
        sd_new, local_sign = drive_to_confirmation(agent)
        secrets += [sd_new, sd_new[:8], sd_new[8:]]
        result = agent.handle("map-1", wire.MapChallengeResponseOrder(local_sign), 10)
        payloads += [wire.encode(m) for _, m in result.out]
        blob = b"|".join(payloads)
        for secret in secrets:
            assert secret not in blob
