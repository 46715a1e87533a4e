import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wgiot import wire


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
    assert wire.encode(wire.UpdateOrder(bytes(16))) == b"\x07\x00\x10" + bytes(16)


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
        wire.decode(b"\x07\x00\x10" + bytes(4))


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


BAD_FRAMES = [
    (b"", wire.Truncated, "frame shorter than 3-byte header (0 bytes)"),
    (b"\x09\x00", wire.Truncated, "frame shorter than 3-byte header (2 bytes)"),
    (b"\xfe\x00\x00", wire.UnknownTag, "tag 0xfe"),
    (b"\x09\x00\x01\x00", wire.LengthMismatch, "ChallengeAck: declared 1, layout requires 0"),
    (b"\x09\x00\x00\x00", wire.LengthMismatch, "ChallengeAck: 1 trailing bytes"),
    (b"\x07\x00\x10" + bytes(4), wire.Truncated, "UpdateOrder: payload 4 < declared 16"),
    (b"\x07\x00\x10" + bytes(17), wire.LengthMismatch, "UpdateOrder: 1 trailing bytes"),
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
