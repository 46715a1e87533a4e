import random

import pytest

import prf_oracle
from wgiot import crypto, wire
from wgiot.rng import SimRng
from wgiot.wbrac import (
    DuplicateIcd,
    MpcSchedule,
    NoPendingUpdate,
    TooEarly,
    UpdateInProgress,
    WbracService,
)


def make_wbrac(seed=0, period=100):
    rng = SimRng(seed)
    svc = WbracService(schedule=MpcSchedule(period_ms=period), rng=rng)
    r = random.Random(seed)
    wgie = crypto.WgieRecord(r.randbytes(32), 2, 1)
    svc.provision(1, wgie, crypto.ScAuthKey(r.randbytes(16)), sd=crypto.SdPair(r.randbytes(16)))
    return svc, rng


def test_provision_initial_counter_and_duplicate():
    svc, rng = make_wbrac()
    with pytest.raises(DuplicateIcd):
        svc.provision(1, svc.registry[1].wgie, svc.registry[1].sc_auth_k, sd=svc.registry[1].sd)


def test_expected_aac_matches_oracle():
    svc, _ = make_wbrac()
    rec = svc.registry[1]
    assert svc.expected_aac(rec) == prf_oracle.aac(
        rec.sd.packed, rec.wgie.esn, rec.icd_in, rec.sc_auth_k.bits
    )


def test_rotate_mpc_and_too_early():
    svc, rng = make_wbrac(period=100)
    before = svc.schedule.current
    frame = svc.rotate_mpc(now=0)
    assert frame.mpc is svc.schedule.current != before
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
    aac_from_rand = prf_oracle.aac(msg.rand, rec.wgie.esn, rec.icd_in, rec.sc_auth_k.bits)
    assert rec.pending_sd_new.packed == prf_oracle.sd_gen(
        aac_from_rand, rec.wgie.esn, rec.sc_auth_k.bits
    )


def test_answer_challenge_requires_pending():
    svc, rng = make_wbrac()
    with pytest.raises(NoPendingUpdate):
        svc.answer_challenge(1, bytes(32))
    svc.begin_update(1)
    sign = svc.answer_challenge(1, bytes(32))
    assert len(sign) == 16
    rec = svc.registry[1]
    assert sign == prf_oracle.authz(rec.pending_sd_new.packed, bytes(32), rec.wgie.esn, rec.icd_in)


@pytest.mark.parametrize("length", [10, 31])
def test_answer_challenge_rejects_wrong_length_to_map(length):
    svc, rng = make_wbrac()
    svc.begin_update(1)
    pending = svc.registry[1].pending_sd_new
    with pytest.raises(crypto.BadLength):
        svc.answer_challenge(1, bytes(length))
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
            wgie=rec.wgie,
            sc_auth_k=rec.sc_auth_k,
            sd=rec.sd,
            mpc=bytes(16),
            rmc=crypto.Rmc(0),
            wbrac_id=svc.wbrac_id,
        )
        icd = IcdAgent(cfg, rng)
        msg = svc.begin_update(1)
        (_, order), = icd.handle("map-1", wire.UpdateOrder(msg.rand, cfg.rmc.packed), 0).out
        assert icd.state.sd_new == rec.pending_sd_new
        assert icd.state.local_sign == svc.answer_challenge(1, order.to_map)


def test_commit_atomicity():
    svc, rng = make_wbrac()
    old = svc.registry[1].sd
    svc.begin_update(1)
    new = svc.registry[1].pending_sd_new
    svc.commit(1, confirmed=True)
    assert svc.registry[1].sd in (old, new)
    assert svc.registry[1].sd == new
