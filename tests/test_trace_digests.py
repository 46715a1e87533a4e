"""Pinned sha256 digests of whole `wgiot-trace v1` traces.

Changes that only make the simulator or the agents cheaper must leave every
trace byte-identical, so these digests must not move.  A deliberate
behaviour change (such as retransmitting lost frames) replaces the digests
and gives its reason in CHANGES.md.
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
        "004d0ec9abd37042f6ce1605f260b0f9ecff0af4b3d881a2c47cab03e336b42f",
        "1a085a1fb85a73143e851f7f0992cc44553d8a881e915db0d0138818f657bca2",
        "55e301f4470e6db381575dc369a7673f713a3dfda389d944311dede128090d5f",
        "9d809c3431450b6e82005b02d89dde97ce946c364ce7615b57422a2c3d1e9493",
        "bbd68fc2e2c7cc1b0501bf384bb4a55f4d855404be30f30b5eb640884279a4c9",
        "08a423b1ca3c6de8f62bac3f40b58c990a092577ff45a92b1555433a6d038278",
        "2c0f5f315ae6a14a15f71ce510cb50e7a5fd44b886c44e88ff271bf055eb4520",
        "f794aa835318ad468a811d47b2f24cdcf6dd6d5cd3fe4fa786609ae263c2fa45",
        "8bc053998e341abdb9cd5ecd19aa8893b2e2fe894e7e5c856adc4435497e1e03",
        "bb6fe264162eb937daddebe626220f1fe9cb488d9217e055852e5226da12c4e0",
    ],
    "replay": [
        "3eb331697207e48595c0d82a9ea10430011f394471c80b35d25ac24ca6167e47",
        "3372018d6a76bdd50acb0bd751891b4221d68d94d331d575a757496e28fe628c",
        "281ccb66664011b212c4221ceeb9e33f50e1a168b48491b9327a69cc91aefe63",
        "e568aba80ca1c0d979683b414c712cf1d70e51e6a493cc0824175591868f1314",
        "d66d185269e1ae4e80715e5b980e5b520039388a17fe12ed80c09e762eb8b887",
        "b7819f743dc8ee5138adfedfca1b170c7014c91312e9b6120a92874ea40b2082",
        "824e0faa7babfa65482fd4293317d821f11f293cce42c42fb560bcae290dfbe2",
        "9dbbf4dfa9fc62e2dc940747057ef772b5377cae92fe3e016592d811112d98bb",
        "a74978909107f51c0ffd143a92f02ec936f555f6ecac1f23e8ce5253120e007a",
        "d1d8e4361d64ca89c1f9d6e4384eba23671dc4296aa18c40870a54b558228b8f",
    ],
}

GENERATED_DIGESTS = {  # seeds 0-2
    overlapping_updates: [
        "6323f7b3cc77d537616b2240f4ac0ae3fa5e5caf4bf669ee9bcf30d715593eec",
        "4ac3eafefedf747b6d8e3fb7c8700a6936c061e7c7b4f52fa125367b1f6d7b2f",
        "7c7339c222da5c908d4332d49093d6db1960da790f5a0684b6444bae516fd9f5",
    ],
    lossy_broadcasts: [
        "3351ec8ae025caa5f0509ec031de7f172c697b60a34f26a6fb52a1225b70e9d3",
        "48b0242a95fa193e521ec5e902a6dbb865238cbe9641dd1a8fad62a75f616031",
        "e26b98a0efd96748d72a92a90c956d290924712732b7a678c0d37c3393a16313",
    ],
    impaired_broadcasts: [
        "998e016f0baf156f8ef1b9f14da44f154160b100fd9d588ca1f3010d8c8103dc",
        "7ba503676693f45eb52dd94c3d52adf5fb3589a3f59c045308dbbda82f921221",
        "57c25257ef82130cd6251a4d1fce97d59fb1db7e08bb4defa090e174e840f1ff",
    ],
    burst_broadcasts: [
        "141175282ffdef0db27bdc7956eef8f431cade346e5233da70150cf4624abf62",
        "47e6e258437dd143ec2f5ba189fe00c923ea023bd110bbe4feaa79fd1ee0e571",
        "20f7e2edc23ea2b3957bd728a6398c5f78d8b96b80a7d84758b3f23fdef7db88",
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
