import copy
import random

import pytest

import prf_oracle
from test_trace_digests import SCENARIOS, burst_broadcasts
from wgiot import crypto, wire
from wgiot.agent import MAP
from wgiot.crypto import WBRAC_ID
from wgiot.rng import SimRng
from wgiot.scenario import load_scenario
from wgiot.simnet import Simulator
from wgiot.wbrac import (
    NoPendingUpdate,
    TooEarly,
    UpdateInProgress,
    WbracService,
)


def make_wbrac(seed=0, period=100):
    rng = SimRng(seed)
    svc = WbracService(rng, mpc_period=period)
    r = random.Random(seed)
    svc.provision(1, 2, r.randbytes(16), sd=r.randbytes(16))
    return svc, rng


def forward_challenge(svc, to_map):
    """Hand the WBRAC the access point's MapChallengeForward for device 1."""
    return svc.handle(MAP, wire.MapChallengeForward(1, to_map), 0)


def test_a_service_needs_its_rng_and_mpc_period():
    # no defaults: a service without an rng would fail at its first draw
    for args in ((), (SimRng(0),)):
        with pytest.raises(TypeError):
            WbracService(*args)


def test_expected_aac_matches_oracle():
    svc, _ = make_wbrac()
    rec = svc.registry[1]
    # the material's AAC is of the current SD, or of the SD it is given
    for sd in (None, bytes(range(16))):
        want = prf_oracle.aac(sd or rec.sd, rec.esn, rec.icd_in, rec.sc_auth_k)
        expected_aac, _, _ = svc.map_provision(rec, sd=sd)
        assert expected_aac == want


def test_rotate_mpc_and_too_early():
    svc, rng = make_wbrac(period=100)
    before = svc.mpc
    frame = svc.rotate_mpc(now=0)
    assert frame.mpc is svc.mpc != before
    with pytest.raises(TooEarly):
        svc.rotate_mpc(now=50)
    svc.rotate_mpc(now=100)
    svc.rotate_mpc(now=200)


def test_begin_update_once_and_frame_round_trip():
    svc, rng = make_wbrac()
    msg = svc.begin_update(1)
    assert wire.decode(wire.encode(msg)) == msg
    assert msg.icd_in == 1 and len(msg.rand) == 16
    with pytest.raises(UpdateInProgress):
        svc.begin_update(1)


def test_update_derivation_matches_oracle_chain():
    svc, rng = make_wbrac()
    rec = svc.registry[1]
    msg = svc.begin_update(1)
    aac_from_rand = prf_oracle.aac(msg.rand, rec.esn, rec.icd_in, rec.sc_auth_k)
    assert rec.pending_sd_new == prf_oracle.sd_gen(aac_from_rand, rec.esn, rec.sc_auth_k)


def test_answer_challenge_requires_pending():
    svc, rng = make_wbrac()
    registry = copy.deepcopy(svc.registry)
    result = forward_challenge(svc, bytes(32))
    assert result.note == "unexpected MapChallengeForward in -" and result.out == []
    assert svc.registry == registry
    svc.begin_update(1)
    (dst, response), = forward_challenge(svc, bytes(32)).out
    assert dst == MAP and type(response) is wire.MapChallengeResponse and response.icd_in == 1
    sign = response.auth_sign_map
    assert len(sign) == 16
    rec = svc.registry[1]
    assert sign == prf_oracle.authz(rec.pending_sd_new, bytes(32), rec.esn, rec.icd_in)


@pytest.mark.parametrize("length", [10, 31])
def test_answer_challenge_rejects_wrong_length_to_map(length):
    svc, rng = make_wbrac()
    svc.begin_update(1)
    pending = svc.registry[1].pending_sd_new
    with pytest.raises(crypto.BadLength):
        forward_challenge(svc, bytes(length))
    assert svc.registry[1].pending_sd_new is pending


def test_commit_confirmed_and_rejected():
    svc, rng = make_wbrac()
    svc.begin_update(1)
    pending = svc.registry[1].pending_sd_new
    svc.commit(1, confirmed=True)
    assert svc.registry[1].sd == pending
    with pytest.raises(NoPendingUpdate):
        svc.commit(1, confirmed=True)

    svc.begin_update(1)
    old = svc.registry[1].sd
    svc.commit(1, confirmed=False)
    assert svc.registry[1].sd == old


def test_cross_agent_sd_agreement():
    """The WBRAC's pending pair equals what a device derives from the same
    rand, and their signatures over one TO_MAP agree (property over seeds)."""
    from wgiot.icd import IcdAgent, IcdConfig

    for seed in range(1000):
        svc, rng = make_wbrac(seed)
        rec = svc.registry[1]
        cfg = IcdConfig(
            icd_in=rec.icd_in,
            esn=rec.esn,
            sc_auth_k=rec.sc_auth_k,
            sd=rec.sd,
            aac=crypto.authenticate_signature(rec.sd, rec.esn, rec.icd_in, rec.sc_auth_k),
            mpc=bytes(16),
            rmc=bytes(16),
        )
        icd = IcdAgent(cfg, rng)
        msg = svc.begin_update(1)
        (_, order), = icd.handle("map-1", wire.UpdateOrder(msg.rand, cfg.rmc), 0).out
        assert icd.state.sd_new == rec.pending_sd_new
        (_, response), = forward_challenge(svc, order.to_map).out
        assert icd.state.local_sign == response.auth_sign_map


def test_commit_atomicity():
    svc, rng = make_wbrac()
    old = svc.registry[1].sd
    svc.begin_update(1)
    new = svc.registry[1].pending_sd_new
    svc.commit(1, confirmed=True)
    assert svc.registry[1].sd in (old, new)
    assert svc.registry[1].sd == new


def eager_sign(sd: bytes, wmap: bytes, esn: int, icd_in: int) -> bytes:
    """The unique-challenge signature a WBRAC that signed at registration
    made, through the oracle: WMAP ∥ low 16 bits of WBRAC_ID, signed with sd."""
    composite = wmap + (WBRAC_ID & 0xFFFF).to_bytes(2, "big")
    return prf_oracle.authz(sd, composite, esn, icd_in)


@pytest.mark.parametrize(
    "build",
    [lambda: load_scenario(SCENARIOS / "honest.scn"), lambda: burst_broadcasts(0)],
    ids=["honest", "burst_broadcasts"],
)
def test_the_first_use_signature_is_the_one_registration_made(build):
    """The pair the access point gets at a device's first challenge is the
    one that drawing and signing at registration gave: its WMAP is the
    device's 8-byte draw, in device order, and its signature the oracle's
    for that WMAP.  The access point holds no pair before it."""
    scenario = build()
    sim = Simulator(scenario, seed=0)
    rng = SimRng(0)
    for sub in scenario.subscribers:
        rec = sim.map.records[sub.icd_in]
        assert rec.wmap is None and rec.challenge_sign is None
        wmap = rng.draw_bytes(8)
        assert sim.wbrac.registration_pair(sub.icd_in) == (
            wmap,
            eager_sign(sub.sd, wmap, sub.esn, sub.icd_in),
        )


@pytest.mark.parametrize("name", ["honest", "challenge"])
def test_set_up_jumps_the_stream_past_one_word_per_device(monkeypatch, name):
    """Building a simulator draws nothing: it leaves the stream where one
    8-byte draw per device left it."""
    draws = []
    draw = SimRng.draw_bytes

    def counting_draw(self, n):
        draws.append(n)
        return draw(self, n)

    monkeypatch.setattr(SimRng, "draw_bytes", counting_draw)
    scenario = load_scenario(SCENARIOS / f"{name}.scn")
    sim = Simulator(scenario, seed=3)
    monkeypatch.undo()
    assert draws == []
    eager = SimRng(3)
    for _ in scenario.subscribers:
        eager.draw_bytes(8)
    assert sim.rng._state == eager._state


@pytest.mark.parametrize("new_sd_first", [False, True], ids=["provisioned-first", "new-first"])
def test_a_commit_the_access_point_missed_leaves_the_registration_pair(new_sd_first):
    """A forged UpdateConfirmation in the access point's name commits a new
    SD at the WBRAC alone.  The access point still challenges with the
    registration pair, so an answer under the registration SD passes and
    one under the new SD fails, whichever comes first."""
    sim = Simulator(load_scenario(SCENARIOS / "honest.scn"), seed=0)
    cfg = sim.icds["icd-1"].cfg
    sim.wbrac.handle(MAP, wire.UpdateRequest(cfg.icd_in), 0)
    assert sim.wbrac.handle(MAP, wire.UpdateConfirmation(cfg.icd_in), 0).note == "committed"
    new_sd = sim.wbrac.registry[cfg.icd_in].sd
    assert new_sd != cfg.sd

    def answer(sd):
        # the MPC and the RMC match, the AAC does not: a challenge
        request = wire.AuthRequest(cfg.icd_in, cfg.esn, bytes(48))
        ((_, challenge),) = sim.map.handle("icd-1", request, 1).out
        signed = eager_sign(sd, challenge.wmap, cfg.esn, cfg.icd_in)
        return sim.map.handle("icd-1", wire.AuthChallengeAnswer(signed), 2).note

    verdicts = {}
    for sd in (new_sd, cfg.sd) if new_sd_first else (cfg.sd, new_sd):
        verdicts[sd] = answer(sd)
    assert verdicts == {cfg.sd: "challenge-passed", new_sd: "challenge-failed -> deny"}


def test_a_copied_simulators_access_point_signs_through_the_copys_wbrac():
    sim = Simulator(load_scenario(SCENARIOS / "challenge.scn"), seed=0)
    clone = copy.deepcopy(sim)
    assert clone.map.registration_pair.__self__ is clone.wbrac
    sim.wbrac.registry.clear()  # the original's WBRAC has a pair for no device now
    trace = clone.run()
    assert "challenge-passed -> -" in trace.notes
    assert clone.icds["icd-1"].state_name == "Authenticated"
    assert sim.map.records[1].wmap is None and sim.map.records[1].challenge_sign is None
