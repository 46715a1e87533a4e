"""Acceptance gate: one test per release criterion, each printing a pass/fail
line.  Run with `pytest -s tests/test_acceptance.py` to see the lines inline.
"""

import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import prf_oracle
from conftest import (
    K0,
    S0,
    TO_MAP_SEED42,
    UPDATE_RAND_SEED42,
    V0,
    W0,
    WMAP_SEED42,
    make_subscriber,
    update_scenario,
)
from wgiot import crypto, wire
from wgiot.access_point import MapAgent
from wgiot.icd import Authenticated
from wgiot.rng import SimRng
from wgiot.scenario import load_scenario
from wgiot.simnet import (
    CaptureMatching,
    LinkModel,
    ReplayCaptured,
    RotateMpc,
    Scenario,
    Simulator,
    StartIcd,
    sim_run,
)

ROOT = Path(__file__).resolve().parent.parent


def report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {verdict}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_honest_run_reproduction():
    golden = (ROOT / "scenarios" / "golden" / "honest.trace").read_text()
    bad = [
        seed
        for seed in range(100)
        if sim_run(load_scenario(ROOT / "scenarios" / "honest.scn"), seed).serialize()
        != golden
    ]
    report(1, "honest-run reproduction", not bad, f"seeds off golden: {bad}")


def _decode_payload(cls, payload: bytes) -> wire.WireMessage:
    """The frame of type cls whose traced payload this is."""
    return wire.decode(bytes([cls.TAG]) + cls.SIZE.to_bytes(2, "big") + payload)


def test_criterion_2_update_value_state_sync():
    failures = []
    for seed in range(1000):
        sim = Simulator(update_scenario(seed), seed=seed)
        trace = sim.run()
        icd = sim.icds["icd-1"]
        rec = sim.wbrac.registry[1]
        if icd.cfg.sd != rec.sd:
            failures.append((seed, "sd diverged"))
            continue
        # the network's signature copy travels in MapChallengeResponse's
        # auth_sign_map field; the device's copy is recomputed here from the
        # committed service data
        to_map = next(e.payload for e in trace.entries if e.tag == "MobileAccessChallengeOrder")
        response = next(e.payload for e in trace.entries if e.tag == "MapChallengeResponse")
        net_sign = _decode_payload(wire.MapChallengeResponse, response).auth_sign_map
        dev_sign = crypto.authorization_signature(
            icd.cfg.sd, to_map, icd.cfg.wgie.esn, icd.cfg.wgie.icd_in
        )
        if dev_sign != net_sign:
            failures.append((seed, "signature copies differ"))
    report(2, "update-value state sync", not failures, f"{failures[:5]}")


def _challenged_map(backend) -> tuple[MapAgent, bytes]:
    sub = make_subscriber(0)
    sd = crypto.SdPair(sub.sd)
    wmap = bytes(8)
    challenge = crypto.compose_unique_challenge(wmap, 0x5747_0000_0000_0001)
    sign = crypto.authorization_signature(sd, challenge, sub.esn, sub.icd_in, backend=backend)
    agent = MapAgent(bytes(16))
    agent.provision(
        "icd-1", crypto.Rmc(0), wire.MapProvision(sub.icd_in, bytes(16), wmap, sign)
    )
    return agent, sign


def _answer_accepted(agent: MapAgent, guess: bytes) -> bool:
    agent.records[1].challenge_outstanding = True
    tr = agent.handle("icd-1", wire.AuthChallengeAnswer(guess), now=0)
    return any(isinstance(m, wire.AuthAccept) for _, m in tr.out)


def test_criterion_3_forgery_resistance():
    # full-width backend: no random signature out of 10^4 may pass
    agent, _ = _challenged_map(crypto.get_backend("hmac-sha256"))
    r = random.Random(1)
    accepted = sum(_answer_accepted(agent, r.randbytes(16)) for _ in range(10_000))

    # truncated backend: valid-format guesses carry 16 bits of entropy, so the
    # acceptance rate over 2e6 trials must sit in the binomial sanity band
    agent16, sign16 = _challenged_map(crypto.get_backend("trunc16"))
    target = int.from_bytes(sign16[:2], "big")
    guesses = np.random.Generator(np.random.PCG64(7)).integers(
        0, 2**16, size=2_000_000, dtype=np.uint32
    )
    hits = int(np.count_nonzero(guesses == target))
    rate = hits / guesses.size
    in_band = 2**-16 * 0.5 <= rate <= 2**-16 * 2

    # bridge the vectorized count to the real handler: a matching structured
    # guess is accepted, an off-by-one one is not
    hit_guess = sign16[:2] * 8
    miss_guess = ((target ^ 1).to_bytes(2, "big")) * 8
    bridged = _answer_accepted(agent16, hit_guess) and not _answer_accepted(agent16, miss_guess)

    report(
        3,
        "forgery resistance",
        accepted == 0 and in_band and bridged,
        f"accepted={accepted}, trunc16 rate={rate:.2e}, bridged={bridged}",
    )


def test_criterion_4_replay_rejection():
    failures = []
    for seed in range(500):
        sc = Scenario(
            subscribers=[make_subscriber(seed)],
            mpc_period=1,
            schedule=[
                StartIcd("icd-1", at=0),
                RotateMpc(at=100, targets=("map-1", "icd-1")),
            ],
            adversary=[CaptureMatching(wire.AuthRequest.TAG), ReplayCaptured(0, at=200)],
        )
        trace = sim_run(sc, seed=seed)
        replayed = [e for e in trace.entries if "replayed" in e.note]
        ok = (
            len(replayed) == 1
            and "mismatch" in replayed[0].note
            and "guid-match" not in replayed[0].note
        )
        if not ok:
            failures.append(seed)
    report(4, "replay rejection", not failures, f"seeds: {failures[:10]}")


def test_criterion_5_timer_semantics():
    failures = []
    for seed in range(25):
        commit = update_scenario(seed, start_at=600)
        commit.links[("map-1", "wbrac")] = LinkModel(delay_ms=500)
        commit.links[("wbrac", "map-1")] = LinkModel(delay_ms=500)
        sim = Simulator(commit, seed=seed)
        trace = sim.run()
        if trace.frame_count("UpdateConfirmation") < 1:
            failures.append((seed, "1000ms round trip did not commit"))
        elif sim.icds["icd-1"].cfg.sd != sim.wbrac.registry[1].sd:
            failures.append((seed, "committed but sd diverged"))

        expire = update_scenario(seed, start_at=600)
        expire.links[("map-1", "wbrac")] = LinkModel(delay_ms=501)
        expire.links[("wbrac", "map-1")] = LinkModel(delay_ms=500)
        sim = Simulator(expire, seed=seed)
        trace = sim.run()
        if trace.frame_count("UpdateConfirmation") != 0:
            failures.append((seed, "1001ms round trip still confirmed"))
        elif not any(e.note == "update-timeout" for e in trace.entries):
            failures.append((seed, "no timeout recorded"))
    report(5, "timer semantics", not failures, f"{failures[:5]}")


def _random_frame(r: random.Random) -> wire.WireMessage:
    cls = r.choice(wire.MESSAGE_TYPES)
    values = []
    for _, kind in cls.FIELDS:
        if kind == "u64":
            values.append(r.getrandbits(64))
        elif kind == "u8":
            values.append(r.getrandbits(8))
        else:
            values.append(r.randbytes(kind[1]))
    return cls(*values)


def test_criterion_6_codec_totality():
    r = random.Random(6)
    bad = 0
    for _ in range(100_000):
        frame = _random_frame(r)
        if wire.decode(wire.encode(frame)) != frame:
            bad += 1
    aborted = 0
    for _ in range(100_000):
        blob = r.randbytes(r.randrange(0, 40))
        try:
            wire.decode(blob)
        except wire.WireError:
            pass
        except Exception:
            aborted += 1
    report(6, "codec totality", bad == 0 and aborted == 0, f"bad={bad}, aborted={aborted}")


def test_criterion_7_determinism(tmp_path):
    honest = ROOT / "scenarios" / "honest.scn"
    lib_a = sim_run(load_scenario(honest), seed=3).serialize()
    lib_b = sim_run(load_scenario(honest), seed=3).serialize()
    upd_a = sim_run(update_scenario(9), seed=9).serialize()
    upd_b = sim_run(update_scenario(9), seed=9).serialize()

    out = tmp_path / "cli.trace"
    proc = subprocess.run(
        [sys.executable, "-m", "wgiot.cli", "run", str(honest), "--seed", "3",
         "--trace", str(out)],
        capture_output=True,
        text=True,
    )
    cli_ok = proc.returncode == 0 and out.read_text() == lib_a
    report(
        7,
        "determinism",
        lib_a == lib_b and upd_a == upd_b and cli_ok,
        f"lib={lib_a == lib_b}, upd={upd_a == upd_b}, cli={cli_ok}: {proc.stderr}",
    )


def test_criterion_8_crypto_conformance():
    failures = []
    for name in ("hmac-sha256", "trunc16"):
        text = (ROOT / "vectors" / f"{name}.txt").read_text()
        for tag, key, msg, out in crypto.parse_vectors(text):
            want = prf_oracle.prf(key, tag, msg)
            if name == "trunc16":
                want = want[:2] * 16
            if out != want:
                failures.append((name, tag, key.hex()))

    # frozen derivation values on all-zero inputs
    zero_sd = crypto.SdPair(bytes(8) + bytes(8))
    zero_k = crypto.ScAuthKey(bytes(16))
    checks = [
        (crypto.authenticate_signature(zero_sd, 0, 0, zero_k), V0, "V0"),
        (crypto.sd_generation(bytes(16), 0, zero_k).packed, W0, "W0"),
        (crypto.authorization_signature(zero_sd, bytes(32), 0, 0), S0, "S0"),
        (crypto.derive_session_key(zero_sd), K0, "K0"),
    ]
    failures += [(label,) for got, want, label in checks if got != want]

    # nonce draws at the frozen seed
    rng = SimRng(42)
    if crypto.gen_to_map(rng) != TO_MAP_SEED42:
        failures.append(("to_map seed42",))
    if crypto.gen_wmap(rng) != WMAP_SEED42:
        failures.append(("wmap seed42",))
    if crypto.gen_update_rand(rng) != UPDATE_RAND_SEED42:
        failures.append(("update rand seed42",))
    report(8, "crypto conformance", not failures, f"{failures}")
