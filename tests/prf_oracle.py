"""Independent oracle for the reference PRF and the derivations built on it.

The keyed hash is assembled by hand from sha256 with ipad/opad, written
independently of the package's `crypto.hmac_sha256` (no translation tables,
no shared constants), so the two share nothing but the hash primitive.  Both
are also checked against the stdlib `hmac` module in `test_crypto.py`.
"""

import hashlib

_BLOCK = 64


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key + b"\x00" * (_BLOCK - len(key))
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in key) + message).digest()
    return hashlib.sha256(bytes(b ^ 0x5C for b in key) + inner).digest()


def prf(key: bytes, tag: int, message: bytes) -> bytes:
    return hmac_sha256(key, bytes([tag]) + message)


def aac(sd16: bytes, esn: int, icd_in: int, k16: bytes) -> bytes:
    msg = sd16 + esn.to_bytes(8, "big") + icd_in.to_bytes(8, "big")
    return prf(k16, 0x01, msg)[:16]


def sd_gen(aac16: bytes, esn: int, k16: bytes) -> bytes:
    return prf(k16, 0x02, aac16 + esn.to_bytes(8, "big"))[:16]


def authz(sd16: bytes, challenge: bytes, esn: int, icd_in: int) -> bytes:
    msg = challenge + esn.to_bytes(8, "big") + icd_in.to_bytes(8, "big")
    return prf(sd16, 0x03, msg)[:16]


def session_key(sd2: bytes) -> bytes:
    return prf(sd2, 0x04, b"")[:16]
