import random

import pytest

import prf_oracle
from wgiot import crypto, wire
from wgiot.rng import SimRng
from wgiot.wbrac import (
    DuplicateIcd,
    IoFailure,
    MpcSchedule,
    NoPendingUpdate,
    ParseError,
    TooEarly,
    UpdateInProgress,
    WbracService,
)


def make_wbrac(seed=0, period=100):
    rng = SimRng(seed)
    svc = WbracService(schedule=MpcSchedule(period_ms=period), rng=rng)
    r = random.Random(seed)
    wgie = crypto.WgieRecord(r.randbytes(32), 2, 1)
    svc.provision(1, wgie, crypto.ScAuthKey(r.randbytes(16)), sd=crypto.SdPair.from_packed(r.randbytes(16)))
    return svc, rng


def test_provision_initial_counter_and_duplicate():
    svc, rng = make_wbrac()
    assert svc.registry[1].rmc.counter == 0
    with pytest.raises(DuplicateIcd):
        svc.provision(1, svc.registry[1].wgie, svc.registry[1].sc_auth_k, sd=svc.registry[1].sd)


def test_provision_random_sd_when_unspecified():
    svc, rng = make_wbrac()
    rec = svc.provision(2, crypto.WgieRecord(bytes(32), 2, 2), crypto.ScAuthKey(bytes(16)))
    assert len(rec.sd.packed) == 16


def test_expected_aac_matches_oracle():
    svc, _ = make_wbrac()
    rec = svc.registry[1]
    assert svc.expected_aac(rec).bits == prf_oracle.aac(
        rec.sd.packed, rec.wgie.esn, rec.icd_in, rec.sc_auth_k.bits
    )


def test_rotate_mpc_and_too_early():
    svc, rng = make_wbrac(period=100)
    before = svc.schedule.current
    frame = svc.rotate_mpc(now=0)
    assert frame.mpc == svc.schedule.current.bits != before.bits
    assert svc.schedule.history == [before]
    with pytest.raises(TooEarly):
        svc.rotate_mpc(now=50)
    svc.rotate_mpc(now=100)
    svc.rotate_mpc(now=200)
    assert len(svc.schedule.history) <= 2


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
        svc.answer_challenge(1, crypto.ToMap(bytes(32)))
    svc.begin_update(1)
    sign = svc.answer_challenge(1, crypto.ToMap(bytes(32)))
    assert len(sign.bits) == 16
    rec = svc.registry[1]
    assert sign.bits == prf_oracle.authz(
        rec.pending_sd_new.packed, bytes(32), rec.wgie.esn, rec.icd_in
    )


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
            mpc=crypto.Mpc(bytes(16)),
            rmc=crypto.Rmc(0),
            wbrac_id=svc.wbrac_id,
        )
        icd = IcdAgent("icd-1", cfg, "map-1", rng)
        msg = svc.begin_update(1)
        icd.handle("map-1", wire.UpdateOrder(msg.rand), 0)
        assert icd.state.sd_new == rec.pending_sd_new
        assert icd.state.local_sign == svc.answer_challenge(1, icd.state.to_map)


def test_commit_atomicity():
    svc, rng = make_wbrac()
    old = svc.registry[1].sd
    svc.begin_update(1)
    new = svc.registry[1].pending_sd_new
    svc.commit(1, confirmed=True)
    assert svc.registry[1].sd in (old, new)
    assert svc.registry[1].sd == new


# -- persistence -----------------------------------------------------------------


def test_empty_registry_round_trip(tmp_path):
    svc = WbracService()
    path = tmp_path / "reg.txt"
    svc.save(path)
    other = WbracService()
    other.load(path)
    assert other.registry == {}
    assert other.schedule == svc.schedule


def test_randomized_registry_round_trip(tmp_path):
    r = random.Random(9)
    for case in range(100):
        svc = WbracService(schedule=MpcSchedule(period_ms=r.randrange(1, 10**6)))
        svc.schedule.current = crypto.Mpc(r.randbytes(16))
        if r.random() < 0.5:
            svc.schedule.history = [crypto.Mpc(r.randbytes(16))]
        if r.random() < 0.5:
            svc.schedule.last_rotation = r.randrange(10**6)
        for i in range(r.randrange(0, 5)):
            icd_in = r.getrandbits(64)
            rec = svc.provision(
                icd_in,
                crypto.WgieRecord(r.randbytes(32), r.getrandbits(64), icd_in),
                crypto.ScAuthKey(r.randbytes(16)),
                sd=crypto.SdPair.from_packed(r.randbytes(16)),
            )
            rec.rmc = crypto.Rmc(r.getrandbits(128))
            if r.random() < 0.3:
                rec.pending_sd_new = crypto.SdPair.from_packed(r.randbytes(16))
        path = tmp_path / f"reg{case}.txt"
        svc.save(path)
        other = WbracService()
        other.load(path)
        assert other.registry == svc.registry
        assert other.schedule.period_ms == svc.schedule.period_ms
        assert other.schedule.current == svc.schedule.current
        assert other.schedule.history == svc.schedule.history
        assert other.schedule.last_rotation == svc.schedule.last_rotation


def test_parse_error_carries_line_number(tmp_path):
    svc, rng = make_wbrac()
    path = tmp_path / "reg.txt"
    svc.save(path)
    lines = path.read_text().splitlines()
    parts = lines[2].split()
    parts[2] = "zz" + parts[2][2:]  # corrupt the key hex on line 3
    lines[2] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        WbracService().load(path)
    assert err.value.line_no == 3


def test_bad_header(tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text("not-a-registry\n")
    with pytest.raises(ParseError) as err:
        WbracService().load(path)
    assert err.value.line_no == 1


def test_unwritable_or_missing_registry_raises_io_failure(tmp_path):
    svc, _ = make_wbrac()
    with pytest.raises(IoFailure):
        svc.save(tmp_path)  # a directory, not a file
    with pytest.raises(IoFailure):
        WbracService().load(tmp_path / "missing.txt")
