"""Binary wire codec for every wg-IoT protocol frame.

Layout: tag (1 byte) ∥ payload length (2 bytes, MSB-first) ∥ payload.
Payload fields are packed MSB-first in declaration order.  Each frame
class's encoder and constructor are compiled once, when the class is
created, from its field declaration.  The encoder makes one length check
per byte-string field, then one struct pack of the whole frame; `encode`
only dispatches to it.  A frame class with no fields has one encoding,
packed when the class is created, and its encoder returns that one bytes
object, so every encode of such a frame is the same object.  The
constructor, which `value` compiles for every frozen value type of the
package, stores each field straight into its slot.  Decoding is strict:
unknown tags, length mismatches, and trailing bytes are errors.  For a
frame whose fields hold `int` and `bytes`, `decode(encode(m)) == m` with
the same field types, so the simulator hands a sent frame to its receiver
without decoding it.
"""

from __future__ import annotations

import inspect
import struct
from dataclasses import MISSING, dataclass, fields


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
_INT_BITS = {"u64": 64, "u8": 8}

_BY_TAG: dict[int, type[WireMessage]] = {}  # every frame class, by tag

HEADER_SIZE = 3  # a frame's tag and payload length, before its payload


class WireMessage:
    """Base of every frame.  A frame declares its payload once, as dataclass
    fields annotated with a field kind, and is built with `value`.  Derived
    from that declaration when `value`'s slotted class is created, already
    a dataclass: FIELDS, its (name, kind) pairs with kind "u64", "u8" or
    ("bytes", N); SIZE, the payload length; the struct that packs the whole
    frame; and `_encode`, the frame's encoder.  That class is registered
    under its TAG, which every frame class is checked not to reuse."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        taken = _BY_TAG.get(cls.TAG)
        if taken is not None:
            raise ValueError(f"{cls.__name__} reuses tag {cls.TAG:#04x} of {taken.__name__}")
        if "__dataclass_fields__" not in cls.__dict__:
            return  # the class `value` is about to rebuild
        cls.FIELDS = tuple(
            (name, kind if kind in _INT_CODES else ("bytes", int(kind.removeprefix("b"))))
            for name, kind in inspect.get_annotations(cls).items()
        )
        codes = (_INT_CODES.get(kind) or f"{kind[1]}s" for _, kind in cls.FIELDS)
        cls._frame = struct.Struct(">BH" + "".join(codes))
        cls.SIZE = cls._frame.size - HEADER_SIZE
        cls._encode = _encoder(cls)
        _BY_TAG[cls.TAG] = cls


def _encoder(cls: type):
    """The encoder of frame class `cls`, compiled from its FIELDS: struct
    pads or truncates a wrong-length string silently, so each byte-string
    field is checked first.  An int field out of range fails the pack, and
    only then does `_pack_fault` find which field it was.  A class with no
    fields has one encoding, packed here, and its encoder returns that one
    object."""
    if not cls.FIELDS:
        raw = cls._frame.pack(cls.TAG, 0)

        def _encode(m):
            return raw

        return _encode
    lines = ["def _encode(m):"]
    for name, kind in cls.FIELDS:
        if kind not in _INT_CODES:
            lines += [
                f"    if len(m.{name}) != {kind[1]}:",
                f"        raise WireError(f'{name} must be {kind[1]} bytes, got {{len(m.{name})}}')",
            ]
    values = "".join(f", m.{name}" for name, _ in cls.FIELDS)
    lines += [
        "    try:",
        f"        return pack({cls.TAG}, {cls.SIZE}{values})",
        "    except struct.error as exc:",
        "        raise _pack_fault(m, exc) from None",
    ]
    namespace = {**globals(), "pack": cls._frame.pack}  # the module's names, and the pack
    exec("\n".join(lines), namespace)
    return namespace["_encode"]


def _pack_fault(m: WireMessage, exc: struct.error) -> WireError:
    """The `WireError` for frame `m`, whose pack failed with `exc`: it names
    the first int field that is not an int in its range."""
    for name, kind in m.FIELDS:
        bits = _INT_BITS.get(kind)
        value = getattr(m, name)
        if bits and (not isinstance(value, int) or not 0 <= value < 1 << bits):
            return WireError(f"{name} must be an int in [0, 2**{bits}), got {value!r}")
    return WireError(str(exc))


def value(cls: type) -> type:
    """`dataclass(frozen=True, slots=True)(cls)` with its `__init__`
    compiled again, from the same fields, parameters, defaults and
    annotations, to store each field through its slot's descriptor; the
    frozen `__init__` goes through the slower `object.__setattr__` for each
    field, and then calls `__post_init__` if the class has one.  Everything
    else is the dataclass's own, so assignment still raises
    `FrozenInstanceError`.  The frames, the scenario values, the scenario
    itself and the device states are built this way; the simulator builds
    thousands of each."""
    cls = dataclass(frozen=True, slots=True)(cls)
    namespace, params, lines = {}, [], []
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: value fields take a plain default only")
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        lines.append(f"    _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):  # called last, as the dataclass's __init__ calls it
        lines.append("    self.__post_init__()")
    source = f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(lines) or "    pass")
    exec(compile(source, f"<value {cls.__qualname__}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__annotations__ = cls.__init__.__annotations__
    init.__qualname__ = cls.__init__.__qualname__
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


# Frames are slotted and frozen: a frame holds only its fields, and some
# outlive their delivery (a `MapRecord` keeps the response it relayed).
@value
class SecureActivation(WireMessage):
    icd_in: u64
    TAG = 0x01


@value
class AccessParameterMessage(WireMessage):
    """Periodic network broadcast carrying the current MPC."""

    mpc: b16
    TAG = 0x02


@value
class ParameterUpdateOrder(WireMessage):
    """Increments the receiver's RMC; no payload."""

    TAG = 0x03


@value
class AuthRequest(WireMessage):
    icd_in: u64
    esn: u64
    guid: b48
    TAG = 0x04


@value
class AuthAccept(WireMessage):
    TAG = 0x05


@value
class UpdateMessage(WireMessage):
    """WBRAC → access point: start an update for icd_in using this value."""

    icd_in: u64
    rand: b16
    TAG = 0x06


@value
class UpdateOrder(WireMessage):
    """Access point → device: start the update flow with this value, and
    take rmc, the access point's expected RMC for the device, as its own."""

    rand: b16
    rmc: b16
    TAG = 0x07


@value
class MobileAccessChallengeOrder(WireMessage):
    to_map: b32
    TAG = 0x08


@value
class ChallengeAck(WireMessage):
    TAG = 0x09


@value
class MapChallengeForward(WireMessage):
    icd_in: u64
    to_map: b32
    TAG = 0x0A


@value
class MapChallengeResponse(WireMessage):
    """WBRAC → access point: the signature to relay to the device, and the
    material the access point verifies the device with once it commits: the
    expected AAC and a unique-challenge pair, which only the WBRAC can
    derive."""

    icd_in: u64
    auth_sign_map: b16
    expected_aac: b16
    wmap: b8
    challenge_sign: b16
    TAG = 0x0B


@value
class MapChallengeResponseOrder(WireMessage):
    auth_sign_map: b16
    TAG = 0x0C


@value
class UpdateRejection(WireMessage):
    icd_in: u64
    TAG = 0x0D


@value
class UpdateConfirmation(WireMessage):
    icd_in: u64
    TAG = 0x0E


@value
class AuthenticationChallenge(WireMessage):
    wmap: b8
    TAG = 0x0F


@value
class AuthChallengeAnswer(WireMessage):
    auth_sign_map: b16
    TAG = 0x10


@value
class AccessDenied(WireMessage):
    reason: u8
    TAG = 0x11


@value
class UpdateRequest(WireMessage):
    """Access point → WBRAC: ask for an update-value run for icd_in."""

    icd_in: u64
    TAG = 0x12


MESSAGE_TYPES = tuple(_BY_TAG.values())  # in declaration order


def encode(msg: WireMessage) -> bytes:
    return msg._encode()


def decode(raw: bytes) -> WireMessage:
    if len(raw) < HEADER_SIZE:
        raise Truncated(f"frame shorter than {HEADER_SIZE}-byte header ({len(raw)} bytes)")
    tag = raw[0]
    declared = int.from_bytes(raw[1:HEADER_SIZE], "big")
    cls = _BY_TAG.get(tag)
    if cls is None:
        raise UnknownTag(f"tag {tag:#04x}")
    if declared != cls.SIZE:
        raise LengthMismatch(f"{cls.__name__}: declared {declared}, layout requires {cls.SIZE}")
    payload = len(raw) - HEADER_SIZE
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
