"""Key material and keyed derivation procedures for the wg-IoT protocol.

All values are fixed-width byte strings packed MSB-first, and no value has
a type of its own.  The key SC_AUTH_K and the service data (SD1∥SD2) are
the 16-byte `bytes` of their registry row, which `simnet.scenario_faults`
checks once, before a run.  Every derived value (the AAC, the
AUTH_SIGN_MAP, the session key, the GUID) is the `bytes` the PRF returns,
and every value an agent only stores, compares or forwards (the MPC, the
RMC, the WMAP, the TO_MAP) stays as the `bytes` its frame carries; the
RMC, a 128-bit update counter, is its 16 bytes, MSB-first.  Their lengths
are checked where a wrong one would matter: the AAC in `sd_generation` and
`compose_guid`, the MPC and the RMC in `compose_guid`, the WMAP in
`compose_unique_challenge`, and the 32-byte TO_MAP in
`WbracService._on_challenge_forward`, which would otherwise sign a 10-byte
value in the unique-challenge domain.  The one RMC check that can fail in
a run is the wrap past 2**128 - 1, in `rmc_incremented`.  The
update-value flow's RAND→SD derivation, which the device and the WBRAC
both run, lives in `sd_from_rand`, and the signature that answers a unique
challenge, which the device and the WBRAC both make, in
`unique_challenge_signature`.

Every derivation calls one PRF, `DEFAULT_BACKEND`, looked up when it runs;
"first N bits" of a PRF output always means the most significant N bits (a
byte-string prefix).  `BACKENDS` also holds `trunc16`, a deliberately
weakened 16-bit PRF that only `generate_vectors` renders.

The reference PRF is HMAC-SHA256 (RFC 2104), computed in one pass by
`hmac_sha256`: the key, hashed first if longer than the 64-byte block, is
zero-padded to the block, xored with ipad and opad through two translation
tables, and fed to two sha256 calls.  The digest equals the stdlib's
`hmac.new(key, msg, sha256).digest()` without its per-call HMAC object.
"""

from __future__ import annotations

from hashlib import sha256


class CryptoError(Exception):
    pass


class ChallengeLength(CryptoError):
    """Challenge passed to authorization_signature has an unsupported length."""


class BadLength(CryptoError):
    """Packed value has the wrong byte length."""


class CounterOverflow(CryptoError):
    """RMC counter would wrap past 128 bits."""


U64_MAX = 2**64 - 1

# The network identifier: the simulator models one network with one WBRAC,
# and a unique challenge signs the identifier's low 16 bits.
WBRAC_ID = 0x5747_0000_0000_0001

# Domain-separation tags for the PRF.
TAG_AUTH_SIGNATURE = 0x01
TAG_SD_GENERATION = 0x02
TAG_AUTHZ_SIGNATURE = 0x03
TAG_SESSION_KEY = 0x04
_TAG_BYTES = {tag: bytes((tag,)) for tag in range(256)}  # a tag as the byte the PRF signs


def check_bytes(name: str, value: bytes, length: int) -> None:
    if not isinstance(value, bytes) or len(value) != length:
        raise BadLength(f"{name} must be exactly {length} bytes")


def _check_u64(name: str, value: int) -> None:
    if not 0 <= value <= U64_MAX:
        raise BadLength(f"{name} must fit in 64 bits")


def _pack_ids(esn: int, icd_in: int) -> bytes:
    """esn ∥ icd_in, 8 bytes each, MSB-first; a value outside 64 bits is the
    `BadLength` that names it, esn first."""
    try:
        return esn.to_bytes(8, "big") + icd_in.to_bytes(8, "big")
    except OverflowError:
        _check_u64("esn", esn)
        _check_u64("icd_in", icd_in)
        raise


def rmc_incremented(rmc: bytes) -> bytes:
    """The 16-byte RMC one higher; wrapping past 128 bits is an error."""
    try:
        return (int.from_bytes(rmc, "big") + 1).to_bytes(16, "big")
    except OverflowError:
        raise CounterOverflow("rmc would wrap") from None


# ---------------------------------------------------------------------------
# PRFs

_BLOCK = 64  # sha256 block size in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))  # byte -> byte ^ ipad, for bytes.translate
_OPAD = bytes(b ^ 0x5C for b in range(256))


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256(key, message) as RFC 2104 defines it: two sha256 calls,
    plus one to hash a key longer than the block."""
    if len(key) > _BLOCK:
        key = sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    inner = sha256(key.translate(_IPAD) + message).digest()
    return sha256(key.translate(_OPAD) + inner).digest()


class HmacSha256Backend:
    """Reference PRF: HMAC-SHA256(key, tag_byte ∥ message), 32 bytes.  Every
    derivation and the simulator use it; its name heads every trace."""

    name = "hmac-sha256"

    def evaluate(self, key: bytes, domain_tag: int, message: bytes) -> bytes:
        return hmac_sha256(key, _TAG_BYTES[domain_tag] + message)


class Trunc16Backend:
    """Conformance-vector PRF with 16 bits of effective output.

    The first two bytes of the reference PRF are repeated to fill 32 bytes,
    so a random forgery of its output succeeds with probability 2^-16.  No
    derivation uses it; never a deployment choice.
    """

    name = "trunc16"

    def evaluate(self, key: bytes, domain_tag: int, message: bytes) -> bytes:
        return hmac_sha256(key, _TAG_BYTES[domain_tag] + message)[:2] * 16


DEFAULT_BACKEND = HmacSha256Backend()

BACKENDS = {b.name: b for b in (DEFAULT_BACKEND, Trunc16Backend())}


# ---------------------------------------------------------------------------
# Derivations


def authenticate_signature(sd: bytes, esn: int, icd_in: int, k: bytes) -> bytes:
    """Derive the 128-bit AAC from the 16-byte service data and the device
    identifiers, keyed by the 16-byte SC_AUTH_K."""
    return DEFAULT_BACKEND.evaluate(k, TAG_AUTH_SIGNATURE, sd + _pack_ids(esn, icd_in))[:16]


def sd_generation(aac: bytes, esn: int, k: bytes) -> bytes:
    """Derive a fresh 16-byte service data SD1∥SD2 during the update-value flow."""
    check_bytes("aac", aac, 16)
    try:
        packed_esn = esn.to_bytes(8, "big")
    except OverflowError:
        _check_u64("esn", esn)
        raise
    return DEFAULT_BACKEND.evaluate(k, TAG_SD_GENERATION, aac + packed_esn)[:16]


def sd_from_rand(rand: bytes, esn: int, icd_in: int, k: bytes) -> bytes:
    """The update-value flow's new SD: `sd_generation` of the AAC the 16-byte RAND signs as SD."""
    return sd_generation(authenticate_signature(rand, esn, icd_in, k), esn, k)


def authorization_signature(sd: bytes, challenge: bytes, esn: int, icd_in: int) -> bytes:
    """Sign a challenge with the service data, yielding the AUTH_SIGN_MAP.

    The challenge is either a packed TO_MAP (32 bytes) or the 10-byte
    unique-challenge composite.
    """
    if len(challenge) not in (32, 10):
        raise ChallengeLength(f"challenge must be 32 or 10 bytes, got {len(challenge)}")
    msg = challenge + _pack_ids(esn, icd_in)
    return DEFAULT_BACKEND.evaluate(sd, TAG_AUTHZ_SIGNATURE, msg)[:16]


def derive_session_key(sd: bytes) -> bytes:
    """Derive the 128-bit confidentiality key from the privacy half SD2, the
    service data's last 8 bytes."""
    return DEFAULT_BACKEND.evaluate(sd[8:], TAG_SESSION_KEY, b"")[:16]


# ---------------------------------------------------------------------------
# GUID and challenge composition


def compose_guid(aac: bytes, mpc: bytes, rmc: bytes) -> bytes:
    """Pack AAC∥MPC∥RMC into the 48-byte GUID, MSB-first."""
    check_bytes("aac", aac, 16)
    check_bytes("mpc", mpc, 16)
    check_bytes("rmc", rmc, 16)
    return aac + mpc + rmc


def decompose_guid(packed: bytes) -> tuple[bytes, bytes, bytes]:
    """The packed AAC, MPC and RMC of a 48-byte GUID, unchecked beyond its
    length: the access point compares them as bytes."""
    if len(packed) != 48:
        raise BadLength(f"guid must be 48 bytes, got {len(packed)}")
    return packed[:16], packed[16:32], packed[32:]


def compose_unique_challenge(wmap: bytes, wbrac_id: int) -> bytes:
    """Build the 10-byte unique-challenge composite: the 8-byte WMAP ∥ low
    16 bits of the network identifier."""
    check_bytes("wmap", wmap, 8)
    _check_u64("wbrac_id", wbrac_id)
    return wmap + (wbrac_id & 0xFFFF).to_bytes(2, "big")


def unique_challenge_signature(sd: bytes, wmap: bytes, esn: int, icd_in: int) -> bytes:
    """The AUTH_SIGN_MAP that answers the unique challenge WMAP: the
    composite of the WMAP and the network's `WBRAC_ID`, signed with the
    service data.  The device, the WBRAC and the access point's first-use
    signer all sign through it."""
    composite = compose_unique_challenge(wmap, WBRAC_ID)
    return authorization_signature(sd, composite, esn, icd_in)


# ---------------------------------------------------------------------------
# Nonce generation (all randomness flows from the harness's seeded generator)


def gen_to_map(rng) -> bytes:
    return rng.draw_bytes(32)


def gen_wmap(rng) -> bytes:
    return rng.draw_bytes(8)


def gen_update_rand(rng) -> bytes:
    return rng.draw_bytes(16)


# ---------------------------------------------------------------------------
# Conformance vector file: `tag hex(key) hex(message) hex(output)` per line.

_VECTOR_INPUTS = [
    (TAG_AUTH_SIGNATURE, bytes(16), bytes(32)),
    (TAG_AUTH_SIGNATURE, bytes(16), bytes([0x80]) + bytes(31)),
    (TAG_SD_GENERATION, bytes(16), bytes(24)),
    (TAG_AUTHZ_SIGNATURE, bytes(16), bytes(48)),
    (TAG_SESSION_KEY, bytes(8), b""),
    (TAG_AUTH_SIGNATURE, bytes(range(16)), bytes(range(32))),
    (TAG_SD_GENERATION, b"\xff" * 16, b"\xa5" * 24),
    (TAG_AUTHZ_SIGNATURE, b"\x5a" * 16, bytes(range(26))),
    (TAG_SESSION_KEY, b"\x01" * 8, b""),
]


def generate_vectors(backend) -> str:
    """Render the conformance vectors for a `BACKENDS` entry as line-oriented text."""
    lines = [f"# wgiot prf vectors backend={backend.name}"]
    for tag, key, msg in _VECTOR_INPUTS:
        out = backend.evaluate(key, tag, msg)
        lines.append(f"{tag:#04x} {key.hex()} {msg.hex() or '-'} {out.hex()}")
    return "\n".join(lines) + "\n"


def parse_vectors(text: str) -> list[tuple[int, bytes, bytes, bytes]]:
    vectors = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tag_s, key_s, msg_s, out_s = line.split()
        msg = b"" if msg_s == "-" else bytes.fromhex(msg_s)
        vectors.append((int(tag_s, 16), bytes.fromhex(key_s), msg, bytes.fromhex(out_s)))
    return vectors
