"""Binary wire codec for every wg-IoT protocol frame.

Layout: tag (1 byte) ∥ payload length (2 bytes, MSB-first) ∥ payload.
Payload fields are packed MSB-first in declaration order.  Each frame
class's encoder is generated once, when the class is created, from its
field declaration, as `dataclasses` generates `__init__`: one length check
per byte-string field, then one struct pack of the whole frame.  `encode`
only dispatches to it.  Decoding is strict: unknown tags, length
mismatches, and trailing bytes are errors.  For a frame whose fields hold
`int` and `bytes`, `decode(encode(m)) == m` with the same field types, so
the simulator hands a sent frame to its receiver without decoding it.
"""

from __future__ import annotations

import inspect
import struct
from dataclasses import dataclass


class WireError(Exception):
    pass


class UnknownTag(WireError):
    pass


class LengthMismatch(WireError):
    pass


class Truncated(WireError):
    pass


# Field kinds, used as the annotations of frame fields: u64 (8-byte
# big-endian int), u8 (1-byte int), bN (N-byte string).
u64 = u8 = int
b8 = b16 = b32 = b48 = bytes

_INT_CODES = {"u64": "Q", "u8": "B"}

_BY_TAG: dict[int, type[WireMessage]] = {}  # every frame class, by tag


class WireMessage:
    """Base of every frame.  A frame declares its payload once, as dataclass
    fields annotated with a field kind.  Derived from that declaration when
    the class is created: FIELDS, its (name, kind) pairs with kind "u64",
    "u8" or ("bytes", N); SIZE, the payload length; the struct that packs
    the whole frame; and `_encode`, the frame's encoder.  Creating the class
    also registers it under its TAG, which no other frame may have; the
    class that `dataclass(slots=True)` rebuilds from it takes its place."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        taken = _BY_TAG.get(cls.TAG)
        if taken is not None and not _is_slots_rebuild(cls, taken):
            raise ValueError(f"{cls.__name__} reuses tag {cls.TAG:#04x} of {taken.__name__}")
        cls.FIELDS = tuple(
            (name, kind if kind in _INT_CODES else ("bytes", int(kind.removeprefix("b"))))
            for name, kind in inspect.get_annotations(cls).items()
        )
        codes = (_INT_CODES.get(kind) or f"{kind[1]}s" for _, kind in cls.FIELDS)
        cls._frame = struct.Struct(">BH" + "".join(codes))
        cls.SIZE = cls._frame.size - 3
        cls._encode = _encoder(cls)
        _BY_TAG[cls.TAG] = cls


def _is_slots_rebuild(cls: type, taken: type) -> bool:
    """Whether `cls` is the slotted copy `dataclass(slots=True)` builds of
    `taken`: the same class, already a dataclass when it is created."""
    return (
        (cls.__module__, cls.__name__) == (taken.__module__, taken.__name__)
        and "__dataclass_fields__" in cls.__dict__
    )


def _encoder(cls: type):
    """The encoder of frame class `cls`, compiled from its FIELDS: struct
    pads or truncates a wrong-length string silently, so each byte-string
    field is checked first."""
    lines = ["def _encode(m):"]
    for name, kind in cls.FIELDS:
        if kind not in _INT_CODES:
            lines += [
                f"    if len(m.{name}) != {kind[1]}:",
                f"        raise WireError(f'{name} must be {kind[1]} bytes, got {{len(m.{name})}}')",
            ]
    values = "".join(f", m.{name}" for name, _ in cls.FIELDS)
    lines.append(f"    return pack({cls.TAG}, {cls.SIZE}{values})")
    namespace = {"pack": cls._frame.pack, "WireError": WireError}
    exec("\n".join(lines), namespace)
    return namespace["_encode"]


# Frames are slotted and frozen: a frame holds only its fields, and some
# outlive their delivery (each `MapRecord` keeps its `MapProvision`).
@dataclass(frozen=True, slots=True)
class SecureActivation(WireMessage):
    icd_in: u64
    TAG = 0x01


@dataclass(frozen=True, slots=True)
class AccessParameterMessage(WireMessage):
    """Periodic network broadcast carrying the current MPC."""

    mpc: b16
    TAG = 0x02


@dataclass(frozen=True, slots=True)
class ParameterUpdateOrder(WireMessage):
    """Increments the receiver's RMC; no payload."""

    TAG = 0x03


@dataclass(frozen=True, slots=True)
class AuthRequest(WireMessage):
    icd_in: u64
    esn: u64
    guid: b48
    TAG = 0x04


@dataclass(frozen=True, slots=True)
class AuthAccept(WireMessage):
    TAG = 0x05


@dataclass(frozen=True, slots=True)
class UpdateMessage(WireMessage):
    """WBRAC → access point: start an update for icd_in using this value."""

    icd_in: u64
    rand: b16
    TAG = 0x06


@dataclass(frozen=True, slots=True)
class UpdateOrder(WireMessage):
    """Access point → device: start the update flow with this value, and
    take rmc, the access point's expected RMC for the device, as its own."""

    rand: b16
    rmc: b16
    TAG = 0x07


@dataclass(frozen=True, slots=True)
class MobileAccessChallengeOrder(WireMessage):
    to_map: b32
    TAG = 0x08


@dataclass(frozen=True, slots=True)
class ChallengeAck(WireMessage):
    TAG = 0x09


@dataclass(frozen=True, slots=True)
class MapChallengeForward(WireMessage):
    icd_in: u64
    to_map: b32
    TAG = 0x0A


@dataclass(frozen=True, slots=True)
class MapChallengeResponse(WireMessage):
    icd_in: u64
    auth_sign_map: b16
    TAG = 0x0B


@dataclass(frozen=True, slots=True)
class MapChallengeResponseOrder(WireMessage):
    auth_sign_map: b16
    TAG = 0x0C


@dataclass(frozen=True, slots=True)
class UpdateRejection(WireMessage):
    icd_in: u64
    TAG = 0x0D


@dataclass(frozen=True, slots=True)
class UpdateConfirmation(WireMessage):
    icd_in: u64
    TAG = 0x0E


@dataclass(frozen=True, slots=True)
class AuthenticationChallenge(WireMessage):
    wmap: b8
    TAG = 0x0F


@dataclass(frozen=True, slots=True)
class AuthChallengeAnswer(WireMessage):
    auth_sign_map: b16
    TAG = 0x10


@dataclass(frozen=True, slots=True)
class AccessDenied(WireMessage):
    reason: u8
    TAG = 0x11


@dataclass(frozen=True, slots=True)
class UpdateRequest(WireMessage):
    """Access point → WBRAC: ask for an update-value run for icd_in."""

    icd_in: u64
    TAG = 0x12


@dataclass(frozen=True, slots=True)
class MapProvision(WireMessage):
    """WBRAC → access point: refreshed verification material for one device.

    Carries the expected AAC plus a precomputed unique-challenge pair, since
    only the WBRAC holds the secrets needed to derive them.
    """

    icd_in: u64
    expected_aac: b16
    wmap: b8
    challenge_sign: b16
    TAG = 0x13


MESSAGE_TYPES = tuple(_BY_TAG.values())  # in declaration order


def encode(msg: WireMessage) -> bytes:
    return msg._encode()


def decode(raw: bytes) -> WireMessage:
    if len(raw) < 3:
        raise Truncated(f"frame shorter than 3-byte header ({len(raw)} bytes)")
    tag = raw[0]
    declared = int.from_bytes(raw[1:3], "big")
    cls = _BY_TAG.get(tag)
    if cls is None:
        raise UnknownTag(f"tag {tag:#04x}")
    if declared != cls.SIZE:
        raise LengthMismatch(f"{cls.__name__}: declared {declared}, layout requires {cls.SIZE}")
    payload = len(raw) - 3
    if payload < declared:
        raise Truncated(f"{cls.__name__}: payload {payload} < declared {declared}")
    if payload > declared:
        raise LengthMismatch(f"{cls.__name__}: {payload - declared} trailing bytes")
    return cls(*cls._frame.unpack(raw)[2:])


def tag_name(msg_or_tag) -> str:
    tag = msg_or_tag if isinstance(msg_or_tag, int) else type(msg_or_tag).TAG
    cls = _BY_TAG.get(tag)
    return cls.__name__ if cls else f"tag_{tag:#04x}"


def tag_by_name(name: str) -> int:
    for cls in MESSAGE_TYPES:
        if cls.__name__ == name:
            return cls.TAG
    raise UnknownTag(name)


def frame_table() -> str:
    """The layout table of frames.md: one Markdown row per frame type."""
    width = max(len(cls.__name__) for cls in MESSAGE_TYPES)
    rows = [
        f"| Tag  | {'Frame':<{width}} | Payload bytes | Fields |",
        f"|------|{'-' * (width + 2)}|---------------|--------|",
    ]
    for cls in MESSAGE_TYPES:
        fields = ", ".join(
            f"`{name}` " + (kind if kind in _INT_CODES else f"{kind[1]} bytes")
            for name, kind in cls.FIELDS
        )
        rows.append(f"| 0x{cls.TAG:02X} | {cls.__name__:<{width}} | {cls.SIZE:<13} | {fields or '—'} |")
    return "\n".join(rows) + "\n"
