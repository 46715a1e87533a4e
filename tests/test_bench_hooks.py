"""The span tracer in `bench/spans.py` wraps program names by attribute; a
rename in the program must fail here, not only in the per-layer bench run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402
from conftest import make_subscriber  # noqa: E402
from wgiot import simnet  # noqa: E402


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
