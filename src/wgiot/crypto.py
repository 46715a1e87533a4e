"""Key material types and keyed derivation procedures for the wg-IoT protocol.

All values are fixed-width byte strings packed MSB-first.  A type remains
only where its check can fail: the keys (`WgieRecord`, `ScAuthKey`), the
service data (`SdPair`) and the update counter (`Rmc`).  Every derived value
(the AAC, the AUTH_SIGN_MAP, the session key, the GUID) is the `bytes` the
PRF returns, and every value an agent only stores, compares or forwards
(the MPC, the WMAP, the TO_MAP) stays as the `bytes` its frame carries.
Their lengths are checked where a wrong one would matter: the AAC in
`sd_generation` and `compose_guid`, the MPC in `compose_guid`, the WMAP in
`compose_unique_challenge`, and the 32-byte TO_MAP in
`WbracService.answer_challenge`, which would otherwise sign a 10-byte value
in the unique-challenge domain.  The update-value flow's RAND→SD
derivation, which the device and the WBRAC both run, lives in
`sd_from_rand`.

Every derivation goes through a pluggable PRF backend; "first N bits" of a
PRF output always means the most significant N bits (a byte-string prefix).

The reference PRF is HMAC-SHA256 (RFC 2104), computed in one pass by
`hmac_sha256`: the key, hashed first if longer than the 64-byte block, is
zero-padded to the block, xored with ipad and opad through two translation
tables, and fed to two sha256 calls.  The digest equals the stdlib's
`hmac.new(key, msg, sha256).digest()` without its per-call HMAC object.
"""

from __future__ import annotations

from dataclasses import dataclass
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
U128_MAX = 2**128 - 1

# Domain-separation tags for the PRF backend.
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


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True, slots=True)
class WgieRecord:
    """Per-subscriber root material: 256-bit key plus ESN and ICD_IN."""

    key: bytes  # 32 bytes
    esn: int  # 64-bit equipment serial number of the access point
    icd_in: int  # 64-bit device identification number

    def __post_init__(self):
        check_bytes("key", self.key, 32)
        _check_u64("esn", self.esn)
        _check_u64("icd_in", self.icd_in)


@dataclass(frozen=True, slots=True)
class SdPair:
    """128-bit service data SD1∥SD2: all 16 bytes key the signatures, and
    SD2 alone feeds the session key."""

    packed: bytes

    def __post_init__(self):
        check_bytes("sd", self.packed, 16)

    @property
    def sd2(self) -> bytes:
        return self.packed[8:]


@dataclass(frozen=True, slots=True)
class ScAuthKey:
    """128-bit permanent device authentication key.  Never leaves the device."""

    bits: bytes

    def __post_init__(self):
        check_bytes("sc_auth_k", self.bits, 16)


@dataclass(frozen=True, slots=True)
class Rmc:
    """128-bit unsigned update counter.  Wraparound is an error."""

    counter: int

    def __post_init__(self):
        if not 0 <= self.counter <= U128_MAX:
            raise CounterOverflow("rmc out of 128-bit range")

    def incremented(self) -> "Rmc":
        if self.counter == U128_MAX:
            raise CounterOverflow("rmc would wrap")
        return Rmc(self.counter + 1)

    @property
    def packed(self) -> bytes:
        return self.counter.to_bytes(16, "big")


# ---------------------------------------------------------------------------
# PRF backends

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


class PrfBackend:
    """Deterministic keyed PRF: evaluate(key, domain_tag, message) -> 32 bytes.

    The simulator and its agents always use DEFAULT_BACKEND, whose name
    heads every trace.  The derivations take another backend per call only
    for the statistical forgery tests and the conformance vectors.
    """

    name: str

    def evaluate(self, key: bytes, domain_tag: int, message: bytes) -> bytes:
        raise NotImplementedError


class HmacSha256Backend(PrfBackend):
    """Reference backend: HMAC-SHA256(key, tag_byte ∥ message)."""

    name = "hmac-sha256"

    def evaluate(self, key: bytes, domain_tag: int, message: bytes) -> bytes:
        return hmac_sha256(key, _TAG_BYTES[domain_tag] + message)


class Trunc16Backend(PrfBackend):
    """Test-only backend with 16 bits of effective output.

    The first two bytes of the reference PRF are repeated to fill 32 bytes,
    so random forgeries succeed with probability 2^-16.  Used by the
    statistical forgery tests; never a deployment choice.
    """

    name = "trunc16"

    def evaluate(self, key: bytes, domain_tag: int, message: bytes) -> bytes:
        return hmac_sha256(key, _TAG_BYTES[domain_tag] + message)[:2] * 16


DEFAULT_BACKEND = HmacSha256Backend()

BACKENDS = {b.name: b for b in (DEFAULT_BACKEND, Trunc16Backend())}


class UnknownBackend(CryptoError):
    pass


def get_backend(name: str) -> PrfBackend:
    try:
        return BACKENDS[name]
    except KeyError:
        raise UnknownBackend(name) from None


# ---------------------------------------------------------------------------
# Derivations


def authenticate_signature(
    sd: SdPair, esn: int, icd_in: int, k: ScAuthKey, backend: PrfBackend = DEFAULT_BACKEND
) -> bytes:
    """Derive the 128-bit AAC from the service data and device identifiers."""
    msg = sd.packed + _pack_ids(esn, icd_in)
    return backend.evaluate(k.bits, TAG_AUTH_SIGNATURE, msg)[:16]


def sd_generation(
    aac: bytes, esn: int, k: ScAuthKey, backend: PrfBackend = DEFAULT_BACKEND
) -> SdPair:
    """Derive a fresh 128-bit service-data pair during the update-value flow."""
    check_bytes("aac", aac, 16)
    try:
        packed_esn = esn.to_bytes(8, "big")
    except OverflowError:
        _check_u64("esn", esn)
        raise
    out = backend.evaluate(k.bits, TAG_SD_GENERATION, aac + packed_esn)[:16]
    return SdPair(out)


def sd_from_rand(rand: bytes, esn: int, icd_in: int, k: ScAuthKey) -> SdPair:
    """The update-value flow's new SD: `sd_generation` of the AAC the 16-byte RAND signs as SD."""
    return sd_generation(authenticate_signature(SdPair(rand), esn, icd_in, k), esn, k)


def authorization_signature(
    sd: SdPair,
    challenge: bytes,
    esn: int,
    icd_in: int,
    backend: PrfBackend = DEFAULT_BACKEND,
) -> bytes:
    """Sign a challenge with the service data, yielding the AUTH_SIGN_MAP.

    The challenge is either a packed TO_MAP (32 bytes) or the 10-byte
    unique-challenge composite.
    """
    if len(challenge) not in (32, 10):
        raise ChallengeLength(f"challenge must be 32 or 10 bytes, got {len(challenge)}")
    msg = challenge + _pack_ids(esn, icd_in)
    return backend.evaluate(sd.packed, TAG_AUTHZ_SIGNATURE, msg)[:16]


def derive_session_key(sd: SdPair, backend: PrfBackend = DEFAULT_BACKEND) -> bytes:
    """Derive the 128-bit confidentiality key from the privacy half (sd2 only)."""
    return backend.evaluate(sd.sd2, TAG_SESSION_KEY, b"")[:16]


# ---------------------------------------------------------------------------
# GUID and challenge composition


def compose_guid(aac: bytes, mpc: bytes, rmc: Rmc) -> bytes:
    """Pack AAC∥MPC∥RMC into the 48-byte GUID, MSB-first."""
    check_bytes("aac", aac, 16)
    check_bytes("mpc", mpc, 16)
    return aac + mpc + rmc.packed


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


def generate_vectors(backend: PrfBackend) -> str:
    """Render the conformance vectors for a backend as line-oriented text."""
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
