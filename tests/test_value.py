"""`wire.value`, the decorator of every frozen value type: frames, scenario
values and device states stay frozen, slotted dataclasses with the plain
dataclass's signature, and only their `__init__` is compiled anew."""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import wgiot
from wgiot import simnet, wire


def _frozen_dataclasses() -> list[type]:
    """Every frozen dataclass a wgiot module defines at its top level."""
    found = []
    for info in pkgutil.iter_modules(wgiot.__path__):
        module = importlib.import_module(f"wgiot.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (
                cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
            ):
                found.append(cls)
    return found


VALUES = _frozen_dataclasses()


def _plain(cls: type) -> type:
    """A plain `dataclass(frozen=True, slots=True)` of `cls`'s fields: the
    same names, annotations and defaults, in the same order."""
    fields = dataclasses.fields(cls)
    body = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    body["__annotations__"] = {f.name: f.type for f in fields}
    return dataclasses.dataclass(frozen=True, slots=True)(type(cls.__name__, (), body))


def _field_values(cls: type, tag: str = "") -> dict:
    """A distinct value for each field of `cls`, so a value stored in the
    wrong slot shows.  A `Scenario` checks its fields as it is built, so its
    values are valid ones that it keeps as given: tuples, a `ReadOnlyLinks`
    and ints, another set of them for each `tag`."""
    if cls is simnet.Scenario:
        n = 1 + len(tag)
        return {
            "subscribers": tuple(
                simnet.SubscriberSpec(i, 0, bytes(32), bytes(16), bytes(16)) for i in range(n)
            ),
            "links": simnet.ReadOnlyLinks({("map-1", "wbrac"): simnet.LinkModel(delay_ms=n)}),
            "schedule": (simnet.StartIcd("icd-1"),) * n,
            "adversary": (simnet.ReplayCaptured(index=n, at=5),),
            "expects": (("reaches", "wbrac", "-"),) * (n + 1),
            "max_time": 100_000 + n,
            "mpc_period": 200_000 + n,
        }
    return {f.name: f"{cls.__name__}.{f.name}{tag}" for f in dataclasses.fields(cls)}


def test_every_frozen_dataclass_is_built_by_value():
    # 18 frames, 9 scenario values, the scenario and 6 device states
    assert len(VALUES) == 34
    assert {cls for cls in VALUES if issubclass(cls, wire.WireMessage)} == set(wire.MESSAGE_TYPES)
    for cls in VALUES:
        assert cls.__init__.__code__.co_filename == f"<value {cls.__qualname__}>", cls


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__qualname__)
def test_a_value_has_the_plain_dataclass_signature(cls):
    assert inspect.signature(cls) == inspect.signature(_plain(cls))
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__qualname__)
def test_a_value_is_built_alike_by_position_and_by_keyword(cls):
    values = _field_values(cls)
    by_position, by_keyword = cls(*values.values()), cls(**values)
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    for name, value in values.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    required = {
        f.name: values[f.name] for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING
    }
    defaulted = cls(**required)
    for f in dataclasses.fields(cls):
        want = required[f.name] if f.name in required else f.default
        assert getattr(defaulted, f.name) == want


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__qualname__)
def test_a_value_stays_frozen_and_slotted(cls):
    obj = cls(**_field_values(cls))
    assert not hasattr(obj, "__dict__")
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__qualname__)
def test_replace_and_pickle_round_trip_a_value(cls):
    values = _field_values(cls)
    obj = cls(**values)
    assert dataclasses.replace(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj
    new = _field_values(cls, "'")
    replaced = dataclasses.replace(obj, **new)
    assert [getattr(replaced, name) for name in values] == list(new.values())
    assert dataclasses.replace(replaced, **values) == obj


@pytest.mark.parametrize("by_keyword", [False, True], ids=["by-position", "by-keyword"])
def test_a_value_runs_its_post_init(by_keyword):
    @wire.value
    class Checked:
        a: int
        b: int = 2

        def __post_init__(self):
            if self.a > self.b:
                raise ValueError(f"{self.a} > {self.b}")
            object.__setattr__(self, "b", self.b * 10)

    assert (Checked(a=1, b=3) if by_keyword else Checked(1, 3)).b == 30
    with pytest.raises(ValueError, match="^4 > 3$"):
        Checked(a=4, b=3) if by_keyword else Checked(4, 3)


def test_value_takes_plain_defaults_only():
    with pytest.raises(TypeError, match="^Bad.items: value fields take a plain default only$"):

        @wire.value
        class Bad:
            items: list = dataclasses.field(default_factory=list)
