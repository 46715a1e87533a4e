"""Update flows end to end: concurrent flows each reach the device they name,
and a flow ends the RMC mismatch it was started for."""

import pytest

from conftest import make_subscriber
from wgiot.simnet import LinkModel, RotateMpc, Scenario, SendParameterUpdate, Simulator, StartIcd


def _sd_in_sync(sim: Simulator) -> bool:
    return all(
        agent.cfg.sd == sim.wbrac.registry[agent.cfg.wgie.icd_in].sd
        for agent in sim.icds.values()
    )


def test_concurrent_flows_with_reversed_delays_all_complete():
    """Ten devices whose GUIDs go stale together.  The device with the
    lowest icd_in has the slowest link, so the flows' frames reach the
    access point and the WBRAC in the reverse of icd_in order."""
    n = 10
    subscribers = [make_subscriber(seed=k, icd_in=k) for k in range(1, n + 1)]
    links = {("map-1", "wbrac"): LinkModel(5), ("wbrac", "map-1"): LinkModel(5)}
    for k in range(1, n + 1):
        delay = 10 * (n + 1 - k)
        links[(f"icd-{k}", "map-1")] = LinkModel(delay)
        links[("map-1", f"icd-{k}")] = LinkModel(delay)
    schedule = [RotateMpc(at=10, targets=("map-1",))]
    schedule += [StartIcd(f"icd-{k}", at=20) for k in range(1, n + 1)]
    sim = Simulator(
        Scenario(subscribers=subscribers, links=links, schedule=schedule, mpc_period=1), seed=0
    )
    trace = sim.run()
    assert {agent.state_name for agent in sim.icds.values()} == {"Authenticated"}
    assert _sd_in_sync(sim)
    assert trace.frame_count("UpdateOrder") == n
    assert not any(note.startswith("unexpected") for note in trace.notes)


def _rmc_drift(link: LinkModel, delay_ms: int) -> Scenario:
    """One device whose copy of a parameter-update broadcast goes over
    `link`, while the access point gets exactly one copy; the device's
    links to and from the access point take delay_ms."""
    return Scenario(
        subscribers=[make_subscriber()],
        links={
            ("wbrac", "icd-1"): link,
            ("icd-1", "map-1"): LinkModel(delay_ms),
            ("map-1", "icd-1"): LinkModel(delay_ms),
        },
        schedule=[
            SendParameterUpdate(at=5, targets=("map-1", "icd-1")),
            StartIcd("icd-1", at=10),
        ],
        max_time=20_000,
    )


@pytest.mark.parametrize(
    "link", [LinkModel(drop_prob=1.0), LinkModel(dup_prob=1.0)], ids=["lost", "duplicated"]
)
def test_one_flow_ends_an_rmc_drift(link):
    """A device one RMC behind (broadcast lost) or one ahead (duplicated)
    runs one update flow and matches on its next AuthRequest."""
    sim = Simulator(_rmc_drift(link, delay_ms=10), seed=0)
    trace = sim.run()
    assert trace.frame_count("UpdateOrder") == 1
    assert trace.frame_count("UpdateConfirmation") == 2  # device -> map-1 -> wbrac
    (committed,) = [
        i for i, note in enumerate(trace.notes) if note == "update-committed -> AwaitingAuthResult"
    ]
    requests = [
        i for i, (tag, receiver) in enumerate(zip(trace.tags, trace.receivers))
        if tag == "AuthRequest" and receiver == "map-1" and i > committed
    ]
    assert trace.notes[requests[0]] == "guid-match -> -"
    assert sim.icds["icd-1"].state_name == "Authenticated" and _sd_in_sync(sim)
    assert sim.icds["icd-1"].cfg.rmc == sim.map.records[1].expected_rmc


def test_duplicated_broadcast_over_instant_links_ends():
    """Over 0-ms links every update flow happens at one virtual time, so a
    flow that did not end the RMC drift would start the next one for ever
    without time moving.  Stepped under a cap, so a regression fails
    instead of hanging."""
    sim = Simulator(_rmc_drift(LinkModel(dup_prob=1.0), delay_ms=0), seed=0)
    steps = 0
    while sim._heap and sim._heap[0] <= sim.scenario.max_time:
        assert steps < 10_000, f"still running at t = {sim.now} after {steps} steps"
        sim.step()
        steps += 1
    assert sim.icds["icd-1"].state_name == "Authenticated"
    assert sim.trace.frame_count("UpdateOrder") == 1
