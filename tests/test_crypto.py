import functools
import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prf_oracle
from conftest import (
    K0,
    S0,
    TO_MAP_SEED42,
    UPDATE_RAND_SEED42,
    V0,
    V0_SD1_TOPBIT_FLIPPED,
    W0,
    WMAP_SEED42,
)
from wgiot import crypto
from wgiot.rng import SimRng

ZERO_SD = crypto.SdPair(bytes(8) + bytes(8))
ZERO_K = crypto.ScAuthKey(bytes(16))

bytes8 = st.binary(min_size=8, max_size=8)
bytes16 = st.binary(min_size=16, max_size=16)
u64 = st.integers(min_value=0, max_value=2**64 - 1)


# -- frozen oracle vectors ---------------------------------------------------


def test_authenticate_signature_zero_vector():
    assert crypto.authenticate_signature(ZERO_SD, 0, 0, ZERO_K) == V0


def test_authenticate_signature_bit_flip_changes_output():
    flipped = crypto.SdPair(bytes([0x80]) + bytes(7) + bytes(8))
    out = crypto.authenticate_signature(flipped, 0, 0, ZERO_K)
    assert out == V0_SD1_TOPBIT_FLIPPED
    assert out != V0


def test_sd_generation_zero_vector():
    sd = crypto.sd_generation(bytes(16), 0, ZERO_K)
    assert sd.packed == W0
    assert sd.packed[:8] == W0[:8]


def test_sd_generation_distinct_aacs_give_distinct_pairs():
    a = crypto.sd_generation(bytes(16), 0, ZERO_K)
    b = crypto.sd_generation(b"\x01" + bytes(15), 0, ZERO_K)
    assert a != b
    assert b.packed == prf_oracle.sd_gen(b"\x01" + bytes(15), 0, bytes(16))


def test_authorization_signature_zero_vector():
    assert crypto.authorization_signature(ZERO_SD, bytes(32), 0, 0) == S0


def test_authorization_signature_rejects_bad_challenge_length():
    with pytest.raises(crypto.ChallengeLength):
        crypto.authorization_signature(ZERO_SD, bytes(9), 0, 0)


def test_session_key_zero_vector():
    assert crypto.derive_session_key(ZERO_SD) == K0


def test_session_key_ignores_sd1():
    a = crypto.derive_session_key(crypto.SdPair(b"\xaa" * 8 + bytes(8)))
    b = crypto.derive_session_key(crypto.SdPair(b"\xbb" * 8 + bytes(8)))
    assert a == b == crypto.derive_session_key(ZERO_SD)


@given(bytes16, u64, u64, bytes16)
def test_derivations_match_oracle(sd_raw, esn, icd_in, k_raw):
    sd = crypto.SdPair(sd_raw)
    k = crypto.ScAuthKey(k_raw)
    assert crypto.authenticate_signature(sd, esn, icd_in, k) == prf_oracle.aac(
        sd_raw, esn, icd_in, k_raw
    )
    assert crypto.sd_generation(k_raw, esn, k).packed == prf_oracle.sd_gen(k_raw, esn, k_raw)
    assert crypto.derive_session_key(sd) == prf_oracle.session_key(sd.sd2)


# -- determinism and width closure -------------------------------------------


def test_repeat_call_equality():
    args = (crypto.SdPair(b"\x11" * 8 + b"\x22" * 8), 7, 9, crypto.ScAuthKey(b"\x33" * 16))
    assert crypto.authenticate_signature(*args) == crypto.authenticate_signature(*args)
    assert crypto.derive_session_key(args[0]) == crypto.derive_session_key(args[0])


def test_width_closure_fuzz():
    r = random.Random(1)
    for _ in range(100_000):
        sd = crypto.SdPair(r.randbytes(8) + r.randbytes(8))
        k = crypto.ScAuthKey(r.randbytes(16))
        esn, icd_in = r.getrandbits(64), r.getrandbits(64)
        assert len(crypto.authenticate_signature(sd, esn, icd_in, k)) == 16
        assert len(crypto.sd_generation(r.randbytes(16), esn, k).packed) == 16
        assert len(crypto.authorization_signature(sd, r.randbytes(32), esn, icd_in)) == 16
        assert len(crypto.derive_session_key(sd)) == 16


def test_domain_separation():
    r = random.Random(2)
    backend = crypto.DEFAULT_BACKEND
    for _ in range(10_000):
        key, msg = r.randbytes(16), r.randbytes(24)
        outputs = {backend.evaluate(key, tag, msg) for tag in (0x01, 0x02, 0x03, 0x04)}
        assert len(outputs) == 4


def test_key_sensitivity_single_bit_flips():
    r = random.Random(3)
    changed = 0
    for _ in range(1000):
        sd = crypto.SdPair(r.randbytes(8) + r.randbytes(8))
        esn, icd_in = r.getrandbits(64), r.getrandbits(64)
        k_raw = r.randbytes(16)
        bit = r.randrange(128)
        flipped = bytearray(k_raw)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        a = crypto.authenticate_signature(sd, esn, icd_in, crypto.ScAuthKey(k_raw))
        b = crypto.authenticate_signature(sd, esn, icd_in, crypto.ScAuthKey(bytes(flipped)))
        changed += a != b
    assert changed == 1000


# -- type invariants ----------------------------------------------------------

# Derived values, the MPC and the WMAP have no type; the functions that take
# them check their lengths.
_compose_guid_with_aac = functools.partial(crypto.compose_guid, mpc=bytes(16), rmc=crypto.Rmc(0))
_compose_guid_with_mpc = functools.partial(crypto.compose_guid, bytes(16), rmc=crypto.Rmc(0))
_sd_generation_with_aac = functools.partial(crypto.sd_generation, esn=0, k=ZERO_K)
_unique_challenge_with_wmap = functools.partial(crypto.compose_unique_challenge, wbrac_id=0)


@pytest.mark.parametrize(
    "ctor,raw",
    [
        (crypto.SdPair, bytes(15)),
        (crypto.SdPair, bytes(17)),
        (_compose_guid_with_mpc, bytes(15)),
        (_compose_guid_with_mpc, bytes(17)),
        (_compose_guid_with_aac, bytes(15)),
        (_compose_guid_with_aac, bytes(17)),
        (_sd_generation_with_aac, bytes(15)),
        (_sd_generation_with_aac, bytes(17)),
        (_unique_challenge_with_wmap, bytes(7)),
        (_unique_challenge_with_wmap, bytes(9)),
        (crypto.ScAuthKey, bytes(32)),
    ],
)
def test_fixed_width_types_reject_wrong_lengths(ctor, raw):
    with pytest.raises(crypto.BadLength):
        ctor(raw)


# Each derivation called with one identifier set to `bad`, the other valid.
_DERIVATIONS_BY_ID = {
    "authenticate_signature": lambda esn, icd_in: crypto.authenticate_signature(
        ZERO_SD, esn, icd_in, ZERO_K
    ),
    "authorization_signature": lambda esn, icd_in: crypto.authorization_signature(
        ZERO_SD, bytes(32), esn, icd_in
    ),
    "sd_generation": lambda esn, icd_in: crypto.sd_generation(bytes(16), esn, ZERO_K),
}


@pytest.mark.parametrize("bad", [-1, 2**64])
@pytest.mark.parametrize(
    "derivation,field",
    [
        ("authenticate_signature", "esn"),
        ("authenticate_signature", "icd_in"),
        ("authorization_signature", "esn"),
        ("authorization_signature", "icd_in"),
        ("sd_generation", "esn"),  # takes no icd_in
    ],
)
def test_identifiers_outside_64_bits_are_bad_length(derivation, field, bad):
    ids = {"esn": 3, "icd_in": 4, field: bad}
    with pytest.raises(crypto.BadLength, match=f"^{field} must fit in 64 bits$"):
        _DERIVATIONS_BY_ID[derivation](**ids)


def test_rmc_never_wraps():
    with pytest.raises(crypto.CounterOverflow):
        crypto.Rmc(2**128 - 1).incremented()
    with pytest.raises(crypto.CounterOverflow):
        crypto.Rmc(2**128)


# -- GUID and challenge composition -------------------------------------------


def test_compose_guid_lane_layout():
    aac = bytes(15) + b"\x01"
    mpc = bytes(15) + b"\x02"
    rmc = crypto.Rmc(3)
    packed = crypto.compose_guid(aac, mpc, rmc)
    assert len(packed) == 48
    assert packed[15] == 0x01 and packed[31] == 0x02 and packed[47] == 0x03


def test_decompose_guid_zero_and_bad_length():
    assert crypto.decompose_guid(bytes(48)) == (bytes(16), bytes(16), bytes(16))
    with pytest.raises(crypto.BadLength):
        crypto.decompose_guid(bytes(47))


@given(st.binary(min_size=48, max_size=48))
def test_guid_compose_decompose_inverse(raw):
    aac, mpc, rmc = crypto.decompose_guid(raw)
    assert crypto.compose_guid(aac, mpc, crypto.Rmc(int.from_bytes(rmc, "big"))) == raw


def test_unique_challenge_bit_placement():
    assert crypto.compose_unique_challenge(bytes(8), 0xFFFF) == bytes(8) + b"\xff\xff"
    assert crypto.compose_unique_challenge(b"\xff" * 8, 0) == b"\xff" * 8 + b"\x00\x00"


@given(bytes8, u64)
def test_unique_challenge_length_and_low_bits(wmap_raw, wbrac_id):
    composite = crypto.compose_unique_challenge(wmap_raw, wbrac_id)
    assert len(composite) == 10
    assert composite[:8] == wmap_raw
    assert int.from_bytes(composite[8:], "big") == wbrac_id & 0xFFFF


# -- seeded nonce generation ---------------------------------------------------


def test_seed42_nonce_vectors():
    rng = SimRng(42)
    to_map = crypto.gen_to_map(rng)
    wmap = crypto.gen_wmap(rng)
    rand = crypto.gen_update_rand(rng)
    assert to_map == TO_MAP_SEED42
    assert wmap == WMAP_SEED42
    assert rand == UPDATE_RAND_SEED42
    assert to_map[:8] != wmap


def test_nonce_widths():
    rng = SimRng(0)
    assert len(crypto.gen_to_map(rng)) == 32
    assert len(crypto.gen_wmap(rng)) == 8
    assert len(crypto.gen_update_rand(rng)) == 16


def test_two_draws_differ():
    rng = SimRng(42)
    assert crypto.gen_to_map(rng) != crypto.gen_to_map(rng)


# -- conformance vector file ----------------------------------------------------


def test_vector_file_round_trip_and_oracle_agreement():
    text = crypto.generate_vectors(crypto.DEFAULT_BACKEND)
    vectors = crypto.parse_vectors(text)
    assert len(vectors) == len(crypto._VECTOR_INPUTS)
    for tag, key, msg, out in vectors:
        assert prf_oracle.prf(key, tag, msg) == out


def test_unknown_backend():
    with pytest.raises(crypto.UnknownBackend):
        crypto.get_backend("rot13")


def test_prf_backends_and_oracle_equal_stdlib_hmac():
    # key lengths 0-130 cover empty, short, exactly one 64-byte block, and
    # keys longer than the block, which RFC 2104 hashes first
    r = random.Random(2104)
    trunc16 = crypto.get_backend("trunc16")
    for key_len in range(131):
        key = r.randbytes(key_len)
        for tag, msg in ((0x01, b""), (0x03, r.randbytes(42)), (0xFF, r.randbytes(200))):
            want = hmac.new(key, bytes([tag]) + msg, hashlib.sha256).digest()
            assert crypto.DEFAULT_BACKEND.evaluate(key, tag, msg) == want
            assert trunc16.evaluate(key, tag, msg) == want[:2] * 16
            assert prf_oracle.prf(key, tag, msg) == want
