"""Pinned sha256 digests of whole `wgiot-trace v1` traces.

Changes that only make the simulator or the agents cheaper must leave every
trace byte-identical, so these digests must not move.  A deliberate
behaviour change (such as retransmitting lost frames) replaces the digests
and gives its reason in CHANGES.md.
"""

import dataclasses
import hashlib
import random
import sys
from pathlib import Path

import pytest

from wgiot import crypto, wire
from wgiot.icd import IcdAgent
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
)
from wgiot.wbrac import WbracService

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def digest(scenario: Scenario, seed: int) -> str:
    return hashlib.sha256(Simulator(scenario, seed).run().serialize().encode()).hexdigest()


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
    "challenge": [
        "439a3e5ae366f0bfdb00a2df211d01ca2edc3c3bcd0c2f6f9fb61e5a4112ba64",
        "aa5cb8dee2699a025af09907f99848bc587f53173598f56067a847ad0f50e88f",
        "2b255559e83764ea7746821571115ee1aba1d7f53cc590ee57cfdcbd990d402b",
        "c8538cf28760751f685471a85fa72c122159b3b1924de178c7b3d6ecb3bab9b1",
        "167809f81078d4ba06b4f2d7a6c98aa456245266c12078150ea48d2e6a90e0e5",
        "bc3f845eac0c4444c14f3eeb90e5a1b435d16bda0d3ed318646bfd28ebd4d553",
        "a413d82b28f926cafcace15a8f76eb3ab170e7f422c47b7231e44b537563f98a",
        "12663725445322561196429ca6085adb924c2920bc8b7568a2f6ae55336f7bac",
        "ae7c7f4a781c13dc7b51d5f66d0bb98c18c909c990ea6659399e926b80b839df",
        "ebd28a38c9db3d05fe95d5136f363b655199a1d5079992f4ddb5a4f26551f914",
    ],
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
        "fcf7b32227ab6cfd6acc1273ca772104e7b4a42940c6c600fd012491044e5513",
        "40da8cf33d7c84998489001753690fa8fd3fa9e0948baafe366f591f7c15e7af",
        "cdd1e925fddaf908170179a57ead263f155aa7370fed9ce1ff54db99bb78ea5b",
        "e6dc88488162b6dbcfb21e20a3f3ee6abedfc61bf9ff748a72dbb40ed3e2f105",
        "188cbab3a17f138373909dfdd3c1bfd5e094d8fa08c8d2c09b1dd42f3e1fb2f4",
        "86734c25c162f87d46f5d37a937549b72b55c3fa6252cdb869dba8e53d233140",
        "0ee5ba14023efac6d6582790920fc77a0e07b44e81dfd100b013babb56db18da",
        "b5da6886a884865c2dae648386753368aaa59bb1b1be6117b010b95b6854e115",
        "34d92cdbdd530b90be5899fa1efec9213fc6bfbf0187875c69c2d98e81932cf4",
        "9b4b0f2634bf3cb4c7db0107de9d90c3e91b9ad9f0a9249c494a3365a7ae2071",
    ],
    "replay": [
        "59d3d536b580daa6ae78c580d13760a07ddc969c8eff931c45dfc17c38a25d18",
        "acbfe0e21f731f32ef297445bdf70a7b373e9314c10cc2359226f116945e7539",
        "4e1a63f85f5c0ed3dc8a5e08542685aea1fcdce256cc61963326b0b6bb84affa",
        "00991821edda20328530746b883217b95bad3620690df4d5857fa1d45792eadc",
        "487ebd9f4c1b066849cc94384f38ff81afbab1a62ff638c6d3ac423f7f0093ce",
        "f8b552620714666f380b2e6ca58f71e69240cc7b825f9ea316880b876c9c1895",
        "290640e4d3e2fa72b4f62463dac39a1da319c2b20b1e5564d7d6be8a0fdf2489",
        "88874a31baf76047a6afa897dbf35047dbff9c126829cf18d4dcd4538c79559b",
        "02d109f5ca38eea6ff2c6eefe15a88391a2fd66254660f1538ea7eb589f4a3f0",
        "63d3c2e8881f39190fee9249fafc614b8ae428b5581f944f6c6250d13443491f",
    ],
}

GENERATED_DIGESTS = {  # seeds 0-2
    overlapping_updates: [
        "33e0ce0a0ae60eb3039715879963d1e45041631fde99b0717349ddf011dcdf7f",
        "4504b5429c1a679c748f59f3533945c3f45f05482eafa3b3ab3ce84ca2450782",
        "005995194fe6516a03b5b27a2e21efa5149e75e4c030286f13390fa47e36587d",
    ],
    lossy_broadcasts: [
        "4dc8b63f321a1391db3a1fc9c9afc3c5b5056d985254ebc269fdb659ed02a536",
        "b2896680d8835df93c02d316e4679f4d3c0f822c6ef91e54efd702edc266dbb6",
        "07038d0d35c0c6752f65af8328a7c4ded14e96eaa208d8e3bcd83aa0fc541e70",
    ],
    impaired_broadcasts: [
        "8909ec97030de896bd5419c7c9911f41408ef861d3d0eafd4360747426d2212f",
        "63cc5210bffe8b1b2334061a45aa94bf448ef893e8379cc8ff0d80f6b8bb1da7",
        "1594c96f4cdf011309d5e8bae821933bc4e776e6c991b16a110df5226358baf6",
    ],
    burst_broadcasts: [
        "aa70a11448199d8cbeb06cb1e2545e00f11bfa1b51a9055d639e7046bf11895b",
        "27534f1bb606f26cb12c0e812ff31799069d55ba127eed2d06b4b24eb8aad413",
        "00295a3efea84959d761f9b15b111611ce79abf8ef675ec36f66e578d888a868",
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
        Simulator(build(seed), seed).run()
    assert sent
    for msg in sent:
        decoded = wire.decode(wire.encode(msg))
        assert decoded == msg
        assert type(decoded) is type(msg)
        for field, _ in msg.FIELDS:
            assert type(getattr(decoded, field)) is type(getattr(msg, field)), (msg, field)


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_every_device_ends_holding_the_aac_of_its_sd(name):
    """A device derives its AAC only when it commits a new SD, so after
    every pinned run the AAC it holds is the one its SD gives."""
    build, seeds = PINNED_RUNS[name]
    for seed in range(seeds):
        sim = Simulator(build(seed), seed)
        sim.run()
        for icd in sim.icds.values():
            cfg = icd.cfg
            assert cfg.aac == crypto.authenticate_signature(
                cfg.sd, cfg.esn, cfg.icd_in, cfg.sc_auth_k
            ), (seed, cfg.icd_in)


def challenged_twice(seed: int) -> Scenario:
    """challenge.scn with its wrong-AAC request injected again once the
    device is authenticated: two challenges, each answered."""
    scenario = load_scenario(SCENARIOS / "challenge.scn")
    (inject,) = scenario.adversary
    again = dataclasses.replace(inject, at=500)
    return dataclasses.replace(scenario, adversary=(inject, again), expects=())


@pytest.mark.parametrize("name", ["honest", "burst_broadcasts"])
def test_set_up_makes_one_prf_call_per_device(monkeypatch, name):
    """Building a simulator derives each device's AAC, once, and signs no
    unique-challenge pair: the access point's is signed at its first use."""
    scenario = PINNED_RUNS[name][0](0)
    tags = []
    evaluate = crypto.HmacSha256Backend.evaluate

    def counting_evaluate(self, key, domain_tag, message):
        tags.append(domain_tag)
        return evaluate(self, key, domain_tag, message)

    monkeypatch.setattr(crypto.HmacSha256Backend, "evaluate", counting_evaluate)
    Simulator(scenario, 0)
    assert tags == [crypto.TAG_AUTH_SIGNATURE] * len(scenario.subscribers)


@pytest.mark.parametrize(
    "name,calls",
    [
        ("honest", {}),
        ("update", {"IcdAgent": 4, "WbracService": 5}),
        ("replay", {"IcdAgent": 4, "WbracService": 5}),
        ("challenge", {"IcdAgent": 1, "WbracService": 1}),
        ("challenged_twice", {"IcdAgent": 2, "WbracService": 1}),
    ],
)
def test_prf_calls_during_a_run(monkeypatch, name, calls):
    """An in-sync device authenticates with the AAC it was provisioned with,
    so an honest run makes no PRF call.  An update flow costs each side two
    for the new SD and one to sign TO_MAP with it; the device then derives
    the new SD's AAC at commit (4 calls), and the WBRAC the access point's
    new AAC and challenge signature (5 calls).  A unique challenge costs
    the device one call per answer and the WBRAC one at the first answer,
    when the access point asks it for the registration pair's signature,
    and none at a second, since the access point keeps that signature.
    Each call is counted from after the simulator is built, for the agent
    whose handler made it."""
    build = challenged_twice if name == "challenged_twice" else _scenario_file(name)
    sim = Simulator(build(0), 0)
    counted = {}
    evaluate = crypto.HmacSha256Backend.evaluate

    def counting_evaluate(self, key, domain_tag, message):
        frame = sys._getframe(1)
        while not isinstance(frame.f_locals.get("self"), (IcdAgent, WbracService)):
            frame = frame.f_back
        owner = type(frame.f_locals["self"]).__name__
        counted[owner] = counted.get(owner, 0) + 1
        return evaluate(self, key, domain_tag, message)

    monkeypatch.setattr(crypto.HmacSha256Backend, "evaluate", counting_evaluate)
    sim.run()
    assert counted == calls


@pytest.mark.parametrize("seed", range(3))
def test_impaired_broadcasts_every_device_converges(seed):
    """Lost, duplicated and corrupted broadcasts leave devices out of step
    with the access point, and each update flow ends the drift it was
    started for: every device authenticates with its SD in sync.  Flows
    beyond a device's first come from MPC rotations 500 ms apart racing
    links of up to 100 ms each way, not from the RMC."""
    sim = Simulator(impaired_broadcasts(seed), seed)
    trace = sim.run()
    assert {agent.state_name for agent in sim.icds.values()} == {"Authenticated"}
    assert all(
        agent.cfg.sd == sim.wbrac.registry[agent.cfg.icd_in].sd
        for agent in sim.icds.values()
    )
    flows = [r for t, r in zip(trace.tags, trace.receivers) if t == "UpdateOrder"]
    assert max(flows.count(a) for a in sim.icds) <= 4
