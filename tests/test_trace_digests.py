"""Pinned sha256 digests of whole `wgiot-trace v1` traces.

Changes that only make the simulator or the agents cheaper must leave every
trace byte-identical, so these digests must not move.  A deliberate
behaviour change (such as carrying the device id on the update-flow frames,
or retransmitting lost frames) replaces the digests and gives its reason in
CHANGES.md.
"""

import hashlib
import random
from pathlib import Path

import pytest

from wgiot import wire
from wgiot.scenario import load_scenario
from wgiot.simnet import (
    CaptureMatching,
    CorruptBit,
    LinkModel,
    ReplayCaptured,
    RotateMpc,
    Scenario,
    SendParameterUpdate,
    Simulator,
    StartIcd,
    SubscriberSpec,
    sim_run,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def digest(scenario: Scenario, seed: int) -> str:
    return hashlib.sha256(sim_run(scenario, seed).serialize().encode()).hexdigest()


def _devices(r: random.Random, n: int, drop: float = 0.0, dup: float = 0.0):
    subscribers = [
        SubscriberSpec(
            icd_in=icd_in,
            esn=r.getrandbits(64),
            key=r.randbytes(32),
            sc_auth_k=r.randbytes(16),
            sd=r.randbytes(16),
        )
        for icd_in in r.sample(range(1, 2**63), n)
    ]
    ids = [f"icd-{i}" for i in range(1, n + 1)]
    links = {("map-1", "wbrac"): LinkModel(5), ("wbrac", "map-1"): LinkModel(5)}
    for a in ids:
        links[(a, "map-1")] = LinkModel(r.randint(1, 100), drop, dup)
        links[("map-1", a)] = LinkModel(r.randint(1, 100), drop, dup)
    return subscribers, ids, links


def overlapping_updates(seed: int) -> Scenario:
    """40 devices whose GUIDs go stale together: the MPC rotates at map-1
    only, so several update flows are pending at once."""
    r = random.Random(f"overlapping-updates/{seed}")
    subscribers, ids, links = _devices(r, 40)
    schedule = [RotateMpc(at=10, targets=("map-1",))]
    schedule += [StartIcd(a, at=20 + r.randrange(2_000)) for a in ids]
    return Scenario(subscribers=subscribers, links=links, schedule=schedule, mpc_period=1)


def lossy_broadcasts(seed: int) -> Scenario:
    """30 devices on lossy, duplicating links, with MPC and parameter-update
    broadcasts to everyone and replays of captured AuthRequest frames."""
    r = random.Random(f"lossy-broadcasts/{seed}")
    subscribers, ids, links = _devices(r, 30, drop=0.3, dup=0.1)
    everyone = ("map-1", *ids)
    schedule = [StartIcd(a, at=r.randrange(2_000)) for a in ids]
    schedule += [RotateMpc(at=at, targets=everyone) for at in range(500, 3_000, 500)]
    schedule += [SendParameterUpdate(at=1_250, targets=everyone)]
    adversary = [CaptureMatching(wire.AuthRequest.TAG)]
    adversary += [
        ReplayCaptured(r.randrange(len(ids)), at=2_500 + r.randrange(1_000)) for _ in range(10)
    ]
    return Scenario(
        subscribers=subscribers, links=links, schedule=schedule, adversary=adversary, mpc_period=1
    )


def impaired_broadcasts(seed: int) -> Scenario:
    """30 devices whose copies of the WBRAC's broadcasts are themselves
    dropped, duplicated and corrupted: the wbrac -> icd-k links drop 0.3 and
    duplicate 0.2, the first copies of the MPC broadcast get a payload bit
    flipped, and captured MPC broadcasts are replayed."""
    r = random.Random(f"impaired-broadcasts/{seed}")
    subscribers, ids, links = _devices(r, 30)
    for a in ids:
        links[("wbrac", a)] = LinkModel(r.randint(1, 100), 0.3, 0.2)
    everyone = (*ids, "map-1")
    schedule = [StartIcd(a, at=r.randrange(2_000)) for a in ids]
    schedule += [RotateMpc(at=at, targets=everyone) for at in range(500, 3_000, 500)]
    schedule += [SendParameterUpdate(at=1_250, targets=everyone)]
    tag = wire.AccessParameterMessage.TAG
    adversary = [CorruptBit(tag, bit) for bit in r.sample(range(128), 3)]
    adversary += [CaptureMatching(tag)]
    adversary += [
        ReplayCaptured(r.randrange(60), at=2_000 + r.randrange(1_000)) for _ in range(5)
    ]
    return Scenario(
        subscribers=subscribers, links=links, schedule=schedule, adversary=adversary, mpc_period=1
    )


def burst_broadcasts(seed: int) -> Scenario:
    """300 devices that start in bursts and get every MPC broadcast at one
    instant: the wbrac -> icd-k links have no delay and duplicate 0.2, and
    the device <-> map-1 links drop 0.1 and duplicate 0.1, so hundreds of
    events share each broadcast time."""
    r = random.Random(f"burst-broadcasts/{seed}")
    subscribers, ids, links = _devices(r, 300, drop=0.1, dup=0.1)
    for a in ids:
        links[("wbrac", a)] = LinkModel(0, 0.0, 0.2)
    everyone = ("map-1", *ids)
    schedule = [StartIcd(a, at=100 * r.randrange(10)) for a in ids]
    schedule += [RotateMpc(at=at, targets=everyone) for at in range(250, 2_000, 250)]
    return Scenario(subscribers=subscribers, links=links, schedule=schedule, mpc_period=1)


SCN_DIGESTS = {  # seeds 0-9
    "honest": [
        "4d0d95733661b7f4273b0a691fdb8faec5812404e020c1a87fea6dbcc62672ac",
        "4d0d95733661b7f4273b0a691fdb8faec5812404e020c1a87fea6dbcc62672ac",
        "4d0d95733661b7f4273b0a691fdb8faec5812404e020c1a87fea6dbcc62672ac",
        "4d0d95733661b7f4273b0a691fdb8faec5812404e020c1a87fea6dbcc62672ac",
        "4d0d95733661b7f4273b0a691fdb8faec5812404e020c1a87fea6dbcc62672ac",
        "4d0d95733661b7f4273b0a691fdb8faec5812404e020c1a87fea6dbcc62672ac",
        "4d0d95733661b7f4273b0a691fdb8faec5812404e020c1a87fea6dbcc62672ac",
        "4d0d95733661b7f4273b0a691fdb8faec5812404e020c1a87fea6dbcc62672ac",
        "4d0d95733661b7f4273b0a691fdb8faec5812404e020c1a87fea6dbcc62672ac",
        "4d0d95733661b7f4273b0a691fdb8faec5812404e020c1a87fea6dbcc62672ac",
    ],
    "update": [
        "e73dadc2ea30728538edd9a78fdd57d7db6d2d076c3214702663b21657215b3e",
        "06c821209e4c050be080dd0950b573e382a48b3fc8036df7b702b78697aa4da3",
        "5293707815004076ba4208975c039be9126d332d5a4f5dec2c58dd550a0f96d8",
        "dc03c80c4ffa52719fe60a141a239629c25d08e4de618694a0e4902cb4de27bf",
        "c183888e6d3bfc7385d5cbbf0267425d23b91c2992c1d18790402fc63172b002",
        "20f1cbd4e3fd96f38bee3cbde267c138ce1397b787accdd386e82334f6d1e3bb",
        "36e5a39a09dada8f2828a3816050d07db3f3f7a3dc89117b489c106bfccc96e6",
        "77ade8bdd9d473c4f34071d15b17b8a2b28a6419ba6e81c1af323df6d2028d9b",
        "a3ada7be84ee47e5c59ca407be5de1c1d3ce36a8147b2d39b88ecf5944c90f36",
        "dff8a88a56b2810796d01b9a03d2fef0f3c5100b1e4bb817cb4ee95e89307c79",
    ],
    "replay": [
        "f4adbd61d9018d510bc7cfcea755eff07dd0e7d3127dd9679975ae77ff1ac9d9",
        "1c02b63471a34d3847df7bb8ff42797e3765b9aaa72f9e7fe8d9c851839d730b",
        "06aa1cd81ce012c3f8c610053a93543f2729b19abfffca211021b1db5693c9f7",
        "00b34e44ad5b8d6c24f4ca862e6a222f4d66aa93cb8d4fd4f39650f08130f34c",
        "88d4665d4f3d03012d58cab4e555004b4605c26207a383e0e94659110faaee6a",
        "6c52fd12e618ec16b043286d61651f82943786b754a0f45181065bfb1f848c75",
        "e39cbbe3a789051e5f9081746608822ac0db5de57068684effcc1286ec0234cb",
        "11acd6b471b7e754f50ec436f72da555dca4cf4b0362b57a4780c71638f96afc",
        "1ce54987c91d370a92337a4bd25f96a55dd63e55adea411fffa646f11a1b351a",
        "c3b62d9ec43b05addb484ff59b75140f8fd035e03872cfcd95525484aa4593e5",
    ],
}

GENERATED_DIGESTS = {  # seeds 0-2
    overlapping_updates: [
        "4e582d2a9c30398ce03a80ab5d66d19e55aa210f9ba8569efd6ae160f9d67f8e",
        "efe6eb6c193a9e9c68df785c766d9cb6f7fea0462b588fd40d0bb309a2265960",
        "d5fe9537794c9f2373901ddb3ace4d9b90d84c54a9f034b7c6c79d6fdfc47a7c",
    ],
    lossy_broadcasts: [
        "3cc68a21925a93a56087b6efe3419e0c840b256ee0c32236203ae02eb92f9428",
        "5a822da6eaa2a7279efdf7b966844ba674af78a58158914a12d6611f9d52af3b",
        "20d113ce86923d183fd50dd63ac3c80c793c3043b5c7f8b025017d45ee88ac01",
    ],
    impaired_broadcasts: [
        "6cdc3c5ab173a5b6bb211bffe5fcdea04521628955510b657e90b9647d8c640f",
        "23d54aabe428b366ec421466742b9974d6d10ba0355ba5e7ebcabda772e52979",
        "a400cced9785986d3813abbc412e686ba941d361458a1e87e6c34ff6ed78d66d",
    ],
    burst_broadcasts: [
        "616f589d18be43857ac726784b6e2beb777685d3af29afce6d263d79bde31355",
        "6ff2c1497510dea5adbc7a38a9ec308ff88038ab15f0e56ee635003041604eef",
        "0628cea5aa3e869ca2478294239923ff6da21a66400f1e86bed12737a0f68b17",
    ],
}


@pytest.mark.parametrize("name", sorted(SCN_DIGESTS))
def test_scenario_file_traces_are_pinned(name):
    scenario = load_scenario(SCENARIOS / f"{name}.scn")
    assert [digest(scenario, seed) for seed in range(10)] == SCN_DIGESTS[name]


@pytest.mark.parametrize("build", list(GENERATED_DIGESTS), ids=lambda f: f.__name__)
def test_generated_fleet_traces_are_pinned(build):
    assert [digest(build(seed), seed) for seed in range(3)] == GENERATED_DIGESTS[build]



def _scenario_file(name: str):
    return lambda seed: load_scenario(SCENARIOS / f"{name}.scn")


# name -> (scenario for a seed, number of seeds): every run pinned above
PINNED_RUNS = {n: (_scenario_file(n), len(SCN_DIGESTS[n])) for n in sorted(SCN_DIGESTS)}
PINNED_RUNS.update({b.__name__: (b, len(GENERATED_DIGESTS[b])) for b in GENERATED_DIGESTS})


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_every_sent_frame_is_what_its_bytes_decode_to(monkeypatch, name):
    """The simulator delivers the frame an agent hands over instead of
    decoding its bytes; that is only sound if decoding them would give the
    same frame, with fields of the same types (bytes, not bytearray; int,
    not bool)."""
    sent = []
    send, broadcast = Simulator.send, Simulator._broadcast

    def spy_send(self, src, dst, msg):
        sent.append(msg)
        send(self, src, dst, msg)

    def spy_broadcast(self, targets, frame):
        sent.append(frame)
        broadcast(self, targets, frame)

    monkeypatch.setattr(Simulator, "send", spy_send)
    monkeypatch.setattr(Simulator, "_broadcast", spy_broadcast)
    build, seeds = PINNED_RUNS[name]
    for seed in range(seeds):
        sim_run(build(seed), seed)
    assert sent
    for msg in sent:
        decoded = wire.decode(wire.encode(msg))
        assert decoded == msg
        assert type(decoded) is type(msg)
        for field, _ in msg.FIELDS:
            assert type(getattr(decoded, field)) is type(getattr(msg, field)), (msg, field)
