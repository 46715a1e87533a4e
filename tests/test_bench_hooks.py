"""The span tracer in `bench/spans.py` wraps program names by attribute; a
rename in the program must fail here, not only in the per-layer bench run.
Nor may a change inline a wrapped call on the per-frame path, which would
make the bench's call counts lie."""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import prf_oracle  # noqa: E402
import spans  # noqa: E402
from conftest import make_subscriber  # noqa: E402
from test_trace_digests import impaired_broadcasts, lossy_broadcasts  # noqa: E402
from wgiot import access_point, agent, icd, simnet, wbrac, wire  # noqa: E402
from wgiot.agent import Transition  # noqa: E402


def test_every_wrapped_name_resolves_to_a_callable():
    wrapped = {name: getattr(owner, attr, None) for name, owner, attr in spans.LAYERS}
    assert [name for name, fn in wrapped.items() if not callable(fn)] == []


def test_access_point_splits_each_guid_through_decompose_guid():
    scenario = simnet.Scenario(
        subscribers=[make_subscriber(i, icd_in=i) for i in (1, 2, 3)],
        schedule=[simnet.StartIcd(f"icd-{i}", at=0) for i in (1, 2, 3)],
    )
    tracer = spans.Tracer()
    with tracer.installed():
        simnet.Simulator(scenario, seed=0).run()
    calls = tracer.calls
    assert calls["crypto.decompose_guid"] == calls["access_point.verify"] > 0


def test_a_run_derives_no_session_key_and_each_read_derives_one():
    """Nothing in a run reads a device's session key, so the run derives
    none; each read of `session` then derives it once, through the wrapped
    name.  Every accepted device holds the one shared `Authenticated`."""
    scenario = simnet.Scenario(
        subscribers=[make_subscriber(i, icd_in=i) for i in (1, 2, 3)],
        schedule=[simnet.StartIcd(f"icd-{i}", at=0) for i in (1, 2, 3)],
    )
    tracer = spans.Tracer()
    with tracer.installed():
        sim = simnet.Simulator(scenario, seed=0)
        sim.run()
        assert tracer.calls["crypto.derive_session_key"] == 0
        for reads, device in enumerate(sim.icds.values(), 1):
            assert device.state is icd.AUTHENTICATED
            assert device.session == prf_oracle.session_key(device.cfg.sd[8:])
            assert tracer.calls["crypto.derive_session_key"] == reads


def _shared_results() -> dict[str, Transition]:
    """Each module-level Transition once, by the first name it is found
    under; agent.py's come first, as the others import them."""
    found = {}
    for module in (agent, icd, access_point, wbrac):
        for name, value in vars(module).items():
            if isinstance(value, Transition):
                found.setdefault(id(value), (f"{module.__name__}.{name}", value))
    return dict(found.values())


def test_shared_results_are_unchanged_by_runs_that_return_them():
    shared = _shared_results()
    fresh = {name: Transition(note=result.note) for name, result in shared.items()}
    assert sorted(result.note for result in fresh.values()) == [
        "",
        "activation",
        "authenticated",
        "committed",
        "mpc-updated",
        "rejected",
        "rmc-incremented",
        "update-timeout",
    ]
    for build in (lossy_broadcasts, impaired_broadcasts):
        simnet.Simulator(build(0), 0).run()
    assert [name for name, result in shared.items() if result != fresh[name]] == []


def test_every_trace_line_and_event_goes_through_its_wrapped_name():
    """A burst delivers several broadcast copies in one step, so steps and
    trace lines are counted apart: each line through `Trace.add`, each
    event through `step`."""
    tracer = spans.Tracer()
    with tracer.installed():
        trace = simnet.Simulator(lossy_broadcasts(0), 0).run()
    calls = tracer.calls
    assert calls["simnet.trace_add"] == len(trace.notes) > 0
    # the untraced `step()` calls that take the same scenario to max_time
    sim = simnet.Simulator(lossy_broadcasts(0), 0)
    steps = 0
    while sim._heap and sim._heap[0] <= sim.scenario.max_time:
        sim.step()
        steps += 1
    assert calls["simnet.step"] == steps > 0

    # every wbrac -> icd-k link draws, so every broadcast goes copy by copy
    tracer = spans.Tracer()
    with tracer.installed():
        trace = simnet.Simulator(impaired_broadcasts(0), 0).run()
    assert tracer.calls["simnet.step"] >= len(trace.notes) > 0


def test_each_send_broadcast_and_injection_encodes_once(monkeypatch):
    """`wire.encode` runs exactly once per `send`, per `_broadcast` and per
    injection during a run: no path reuses bytes past the wrapped encode or
    encodes one frame twice, so the per-layer counts stay true."""
    lossy = lossy_broadcasts(0)
    injections = (
        simnet.Inject(wire.ChallengeAck(), to="icd-1", at=700, src="map-1"),
        simnet.Inject(wire.UpdateRequest(1), to=agent.WBRAC, at=900),
    )
    with_injections = replace(lossy, adversary=lossy.adversary + injections)
    for scenario in (lossy, impaired_broadcasts(0), with_injections):
        sim = simnet.Simulator(scenario, 0)
        calls = dict.fromkeys(("encode", "send", "_broadcast"), 0)

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(wire, "encode")
        counted(simnet.Simulator, "send")
        counted(simnet.Simulator, "_broadcast")
        trace = sim.run()
        monkeypatch.undo()
        # an injected copy is queued as it is made, and traced as delivered
        injected = sum(note.startswith("injected") for note in trace.notes)
        assert injected == (len(injections) if scenario is with_injections else 0)
        assert calls["send"] > 0 and calls["_broadcast"] > 0
        assert calls["encode"] == calls["send"] + calls["_broadcast"] + injected
