import random

import pytest

from wgiot import simnet, wire

# Frozen oracle values, computed with tests/prf_oracle.py on all-zero inputs
# before the package derivations were written.
V0 = bytes.fromhex("239a7d0d3f1bbe3a98aede01e2ad818c")
W0 = bytes.fromhex("3451a969c887422793368e70940be29d")
S0 = bytes.fromhex("0a3e173c4cc65db9827ae10ad40ac770")
K0 = bytes.fromhex("828b43dbcf0a839bfdc20457d99e1524")
V0_SD1_TOPBIT_FLIPPED = bytes.fromhex("7c00f4f173e4fe41288157dad390edea")

# First draws of the pcg64 harness generator at seed 42.
TO_MAP_SEED42 = bytes.fromhex(
    "8826d916cdfb21c6c1ff91a761565a702416da6ec212cddb8d8800160eb686b2"
)
WMAP_SEED42 = bytes.fromhex("eb819333b5011c18")
UPDATE_RAND_SEED42 = bytes.fromhex("8c53c786ed62c2f971445abc2f0ddac2")


def make_subscriber(seed: int = 0, icd_in: int = 1, esn: int = 2) -> simnet.SubscriberSpec:
    r = random.Random(seed)
    return simnet.SubscriberSpec(
        icd_in=icd_in,
        esn=esn,
        key=r.randbytes(32),
        sc_auth_k=r.randbytes(16),
        sd=r.randbytes(16),
    )


def honest_scenario(seed: int = 0) -> simnet.Scenario:
    return simnet.Scenario(
        subscribers=[make_subscriber(seed)],
        schedule=[simnet.StartIcd("icd-1", at=0)],
    )


def update_scenario(seed: int = 0, start_at: int = 20) -> simnet.Scenario:
    """MPC rotates to the access point only, so the device's GUID goes stale
    and its authentication attempt triggers the update-value flow.  Before
    that, an adversary asks the WBRAC to start the device's update flow,
    which the WBRAC must ignore: it obeys only the access point."""
    return simnet.Scenario(
        subscribers=[make_subscriber(seed)],
        mpc_period=1,
        schedule=[
            simnet.RotateMpc(at=10, targets=("map-1",)),
            simnet.StartIcd("icd-1", at=start_at),
        ],
        adversary=[simnet.Inject(wire.UpdateRequest(1), to="wbrac", at=5)],
    )


@pytest.fixture
def subscriber():
    return make_subscriber()


def assert_line_tag(trace: simnet.Trace, note: str, tag: str, count: int) -> None:
    """The first line of `trace` noted `note` reads as `tag` in `tags`,
    `entries` and `serialize`, and `frame_count(tag)` counts `count` lines."""
    i = trace.notes.index(note)
    assert trace.tags[i] == tag
    assert trace.entries[i].tag == tag
    assert trace.serialize().splitlines()[i + 2].split("\t")[3] == tag
    assert trace.frame_count(tag) == count
