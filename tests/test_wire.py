import dataclasses
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wgiot import simnet, wire


def random_message(r: random.Random) -> wire.WireMessage:
    cls = r.choice(wire.MESSAGE_TYPES)
    values = {}
    for name, kind in cls.FIELDS:
        if kind == "u64":
            values[name] = r.getrandbits(64)
        elif kind == "u8":
            values[name] = r.getrandbits(8)
        else:
            values[name] = r.randbytes(kind[1])
    return cls(**values)


def test_challenge_ack_layout():
    assert wire.encode(wire.ChallengeAck()) == b"\x09\x00\x00"
    assert wire.decode(b"\x09\x00\x00") == wire.ChallengeAck()


def test_update_order_layout():
    rmc = (5).to_bytes(16, "big")
    assert wire.encode(wire.UpdateOrder(bytes(16), rmc)) == b"\x07\x00\x20" + bytes(16) + rmc


def test_update_flow_frames_name_their_device():
    icd_in = (0x0102030405060708).to_bytes(8, "big")
    assert wire.encode(wire.UpdateConfirmation(0x0102030405060708)) == b"\x0e\x00\x08" + icd_in
    assert wire.encode(wire.UpdateRejection(0x0102030405060708)) == b"\x0d\x00\x08" + icd_in
    material = (b"\x0a" * 16, b"\x0b" * 8, b"\x0c" * 16)
    raw = wire.encode(wire.MapChallengeResponse(0x0102030405060708, b"\x09" * 16, *material))
    assert raw == b"\x0b\x00\x40" + icd_in + b"\x09" * 16 + b"".join(material)


def test_auth_request_layout():
    # hand-assembled from the field table: tag, len=0x40, icd_in, esn, guid
    raw = wire.encode(wire.AuthRequest(icd_in=1, esn=2, guid=bytes(48)))
    expected = (
        b"\x04\x00\x40"
        + (1).to_bytes(8, "big")
        + (2).to_bytes(8, "big")
        + bytes(48)
    )
    assert raw == expected
    assert len(raw) == 3 + 64


def test_encode_rejects_wrong_length_bytes_field():
    with pytest.raises(wire.WireError, match=r"^mpc must be 16 bytes, got 15$"):
        wire.encode(wire.AccessParameterMessage(bytes(15)))
    with pytest.raises(wire.WireError, match=r"^guid must be 48 bytes, got 49$"):
        wire.encode(wire.AuthRequest(icd_in=1, esn=2, guid=bytes(49)))
    # of the right length but not bytes: struct names no field
    with pytest.raises(wire.WireError, match=r"^argument for 's' must be a bytes object$"):
        wire.encode(wire.AccessParameterMessage("x" * 16))


def test_frames_md_table_is_rendered_from_message_types():
    frames_md = (Path(__file__).resolve().parent.parent / "frames.md").read_text()
    assert f"\n\n{wire.frame_table()}\n" in frames_md


def test_unknown_tag():
    with pytest.raises(wire.UnknownTag):
        wire.decode(b"\xfe\x00\x00")


def test_zero_payload_message_rejects_payload():
    with pytest.raises(wire.LengthMismatch):
        wire.decode(b"\x09\x00\x01\x00")


def test_truncated_header_and_payload():
    with pytest.raises(wire.Truncated):
        wire.decode(b"\x09\x00")
    with pytest.raises(wire.Truncated):
        wire.decode(b"\x07\x00\x20" + bytes(4))


def test_trailing_bytes_rejected():
    with pytest.raises(wire.LengthMismatch):
        wire.decode(b"\x09\x00\x00\x00")


def test_round_trip_all_types_fuzz():
    r = random.Random(99)
    for _ in range(20_000):
        msg = random_message(r)
        raw = wire.encode(msg)
        assert len(raw) == 3 + type(msg).SIZE
        assert wire.decode(raw) == msg


@given(st.binary(max_size=4096))
def test_decode_never_aborts_on_garbage(raw):
    try:
        msg = wire.decode(raw)
    except wire.WireError:
        return
    assert wire.encode(msg) == raw


def test_tag_name_lookup():
    assert wire.tag_name(wire.AuthAccept()) == "AuthAccept"
    assert wire.tag_name(0x04) == "AuthRequest"
    assert wire.tag_by_name("AuthRequest") == 0x04
    with pytest.raises(wire.UnknownTag):
        wire.tag_by_name("NotAFrame")


def test_a_frame_class_reusing_a_tag_raises():
    with pytest.raises(ValueError, match="^Impostor reuses tag 0x04 of AuthRequest$"):

        class Impostor(wire.WireMessage):
            TAG = wire.AuthRequest.TAG

    assert wire.tag_name(wire.AuthRequest.TAG) == "AuthRequest"


def test_every_frame_is_frozen():
    # the simulator hands the one frame a sender built to every receiver
    for cls in wire.MESSAGE_TYPES:
        assert cls.__dataclass_params__.frozen, cls.__name__


def _field_value(kind):
    if kind == "u64":
        return st.integers(0, 2**64 - 1)
    if kind == "u8":
        return st.integers(0, 255)
    return st.binary(min_size=kind[1], max_size=kind[1])


def _sized_fields(cls) -> list[tuple[str, int]]:
    return [(name, kind[1]) for name, kind in cls.FIELDS if kind not in ("u64", "u8")]


@st.composite
def frames(draw, classes=wire.MESSAGE_TYPES):
    cls = draw(st.sampled_from(classes))
    return cls(*(draw(_field_value(kind)) for _, kind in cls.FIELDS))


def _reference_encode(msg: wire.WireMessage) -> bytes:
    """The frame packed field by field from its FIELDS declaration."""
    cls = type(msg)
    codes = "".join({"u64": "Q", "u8": "B"}.get(kind) or f"{kind[1]}s" for _, kind in cls.FIELDS)
    values = [getattr(msg, name) for name, _ in cls.FIELDS]
    return struct.pack(">BH" + codes, cls.TAG, cls.SIZE, *values)


@given(frames())
def test_generated_encoder_packs_the_declared_fields(msg):
    assert wire.encode(msg) == _reference_encode(msg)


@given(frames([cls for cls in wire.MESSAGE_TYPES if _sized_fields(cls)]), st.data())
def test_generated_encoder_rejects_a_wrong_length_field(msg, data):
    name, size = data.draw(st.sampled_from(_sized_fields(type(msg))))
    wrong = data.draw(st.binary(max_size=size + 8).filter(lambda b: len(b) != size))
    bad = dataclasses.replace(msg, **{name: wrong})
    with pytest.raises(wire.WireError) as exc:
        wire.encode(bad)
    assert type(exc.value) is wire.WireError
    assert str(exc.value) == f"{name} must be {size} bytes, got {len(wrong)}"


@given(frames([cls for cls in wire.MESSAGE_TYPES if cls.SIZE]), st.data())
def test_a_flipped_payload_bit_decodes_to_a_frame_of_the_same_type(msg, data):
    # the simulator decodes a corrupted copy where it flips the bit
    bit = data.draw(st.integers(0, 8 * type(msg).SIZE - 1))
    flipped = simnet.Simulator._flip_payload_bit(wire.encode(msg), bit)
    frame = wire.decode(flipped)
    assert type(frame) is type(msg)
    assert wire.encode(frame) == flipped


def _int_fields(cls) -> list[tuple[str, int]]:
    return [(name, {"u64": 64, "u8": 8}[kind]) for name, kind in cls.FIELDS if kind in ("u64", "u8")]


@given(frames([cls for cls in wire.MESSAGE_TYPES if _int_fields(cls)]), st.data())
def test_generated_encoder_names_an_int_field_out_of_range(msg, data):
    name, bits = data.draw(st.sampled_from(_int_fields(type(msg))))
    wrong = data.draw(
        st.integers(max_value=-1) | st.integers(min_value=1 << bits) | st.floats() | st.none()
    )
    bad = dataclasses.replace(msg, **{name: wrong})
    with pytest.raises(wire.WireError) as exc:
        wire.encode(bad)
    assert type(exc.value) is wire.WireError
    assert str(exc.value) == f"{name} must be an int in [0, 2**{bits}), got {wrong!r}"


@given(frames())
def test_every_frame_is_frozen_and_slotted(msg):
    assert not hasattr(msg, "__dict__")
    for name, _ in type(msg).FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(msg, name, getattr(msg, name))


BAD_FRAMES = [
    (b"", wire.Truncated, "frame shorter than 3-byte header (0 bytes)"),
    (b"\x09\x00", wire.Truncated, "frame shorter than 3-byte header (2 bytes)"),
    (b"\xfe\x00\x00", wire.UnknownTag, "tag 0xfe"),
    (b"\x09\x00\x01\x00", wire.LengthMismatch, "ChallengeAck: declared 1, layout requires 0"),
    (b"\x09\x00\x00\x00", wire.LengthMismatch, "ChallengeAck: 1 trailing bytes"),
    (b"\x07\x00\x20" + bytes(4), wire.Truncated, "UpdateOrder: payload 4 < declared 32"),
    (b"\x07\x00\x20" + bytes(33), wire.LengthMismatch, "UpdateOrder: 1 trailing bytes"),
    (
        b"\x04\x00\x44" + bytes(68),
        wire.LengthMismatch,
        "AuthRequest: declared 68, layout requires 64",
    ),
]


@pytest.mark.parametrize(
    "raw,error,message", BAD_FRAMES, ids=[raw.hex() or "empty" for raw, _, _ in BAD_FRAMES]
)
def test_decode_rejects_bad_frame(raw, error, message):
    with pytest.raises(wire.WireError) as exc:
        wire.decode(raw)
    assert type(exc.value) is error
    assert str(exc.value) == message
