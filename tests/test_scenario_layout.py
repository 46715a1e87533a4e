"""Properties of the scenario parser over generated files: the layout of a
valid file (section order, blank lines, comments, padding, CRLF endings)
does not change the Scenario it parses to, and a row made bad fails on that
row's own line wherever the layout put it."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from wgiot.scenario import SCENARIO_HEADER, parse_scenario
from wgiot.simnet import ScenarioError

SECTIONS = ("options", "registry", "links", "schedule", "adversary", "expect")


def _hex(size: int):
    return st.binary(min_size=size, max_size=size).map(bytes.hex)


@st.composite
def scenarios(draw) -> dict[str, list[str]]:
    """The rows of a valid scenario, by section; every section may be empty
    except the registry."""
    n = draw(st.integers(1, 4))
    devices = [f"icd-{i}" for i in range(1, n + 1)]
    agents = devices + ["map-1", "wbrac"]
    icd_ins = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n, unique=True))
    registry = [
        f"{icd_in} {draw(st.integers(0, 2**64 - 1))} {draw(_hex(32))} {draw(_hex(16))} "
        f"{draw(_hex(16))} {draw(st.integers(0, 2**128 - 1))}"
        for icd_in in icd_ins
    ]
    options = [
        f"{name} = {draw(st.integers(0, 10**6))}"
        for name in draw(st.lists(st.sampled_from(["max_time", "mpc_period"])))
    ]
    pairs = draw(st.lists(st.tuples(st.sampled_from(agents), st.sampled_from(agents)), unique=True))
    attrs = st.lists(
        st.sampled_from(["delay=0", "delay=17", "drop=0.25", "dup=1.0"]),
        unique_by=lambda a: a.split("=")[0],
    )
    links = [" ".join([src, dst, *draw(attrs)]) for src, dst in pairs]
    times = st.integers(0, 10**4)
    targets = st.lists(st.sampled_from(agents), min_size=1).map(",".join)
    schedule = draw(
        st.lists(
            st.one_of(
                st.builds("start {} at {}".format, st.sampled_from(devices), times),
                st.builds("rotate at {} to {}".format, times, targets),
                st.builds("param-update at {} to {}".format, times, targets),
            )
        )
    )
    adversary = draw(
        st.lists(
            st.one_of(
                st.just("capture AuthRequest"),
                st.builds("replay {} at {}".format, st.integers(0, 9), times),
                st.builds("corrupt AuthRequest bit {}".format, st.integers(0, 511)),
            )
        )
    )
    expect = draw(
        st.lists(
            st.one_of(
                st.sampled_from(
                    [f"{d} reaches Authenticated" for d in devices]
                    + ["map-1 reaches -", "wbrac reaches -"]
                ),
                st.builds("frame-count AuthAccept >= {}".format, st.integers(0, 5)),
            )
        )
    )
    return {
        "options": options,
        "registry": registry,
        "links": links,
        "schedule": schedule,
        "adversary": adversary,
        "expect": expect,
    }


def canonical(sections: dict[str, list[str]]) -> str:
    lines = [SCENARIO_HEADER]
    for name in SECTIONS:
        lines += [f"[{name}]", *sections[name]]
    return "\n".join(lines) + "\n"


@st.composite
def layouts(draw, sections: dict[str, list[str]]):
    """`sections` laid out with the sections shuffled, blank and comment
    lines between any two lines, each line padded with whitespace and ended
    by `\\n` or `\\r\\n`; returns the text and the line number of each row,
    keyed by (section, index)."""
    noise = st.lists(
        st.sampled_from(["", "  ", "# note", "\t# [links]", "#start icd-9 at 0"]), max_size=2
    )
    pad = st.sampled_from(["", " ", "\t", " \t "])
    out: list[str] = []
    where: dict[tuple[str, int], int] = {}

    def emit(line: str) -> int:
        out.extend(draw(noise))
        out.append(draw(pad) + line + draw(pad))
        return len(out)

    emit(SCENARIO_HEADER)
    for name in draw(st.permutations(SECTIONS)):
        emit(f"[{name}]")
        for i, row in enumerate(sections[name]):
            where[name, i] = emit(row)
    out.extend(draw(noise))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in out), where


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.data())
def test_layout_does_not_change_the_scenario(sections, data):
    text, _ = data.draw(layouts(sections))
    assert parse_scenario(text) == parse_scenario(canonical(sections))


def _corrupt(kind: str, sections: dict[str, list[str]], draw):
    """`sections` with one row made bad; returns the (section, index) of
    that row and its fault's reason, given the line of each row."""
    rows = {name: list(section) for name, section in sections.items()}
    if kind == "duplicate-link":
        links = rows["links"] = [
            link for link in rows["links"] if not link.startswith("wbrac wbrac")
        ]
        i = draw(st.integers(0, len(links)))
        links.insert(i, "wbrac wbrac")
        j = draw(st.integers(i + 1, len(links)))
        links.insert(j, "wbrac wbrac delay=3")
        return rows, ("links", j), lambda where: (
            f"duplicate link wbrac -> wbrac, first declared on line {where['links', i]}"
        )
    if kind == "unknown-device":
        j = draw(st.integers(0, len(rows["schedule"])))
        rows["schedule"].insert(j, "start icd-9 at 0")
        return rows, ("schedule", j), lambda where: "unknown device 'icd-9'"
    registry = rows["registry"]
    i = draw(st.integers(0, len(registry) - 1))
    fields = registry[i].split()
    if kind == "bad-int":
        k = draw(st.sampled_from([0, 1, 5]))
        fields[k] = bad = draw(st.sampled_from(["1z", "0x", "--1", "1.5", "ten"]))
        reason = f"expected integer, got {bad!r}"
    elif kind == "bad-hex":
        k = draw(st.sampled_from([2, 3, 4]))
        fields[k] = bad = fields[k][:-1] + draw(st.sampled_from(["", "g", "0z"]))
        reason = f"invalid hex {bad!r}"
    elif kind == "5-fields":
        fields.pop(draw(st.integers(0, 5)))
        reason = "registry line needs 6 fields, got 5"
    else:  # 7 fields
        fields.insert(draw(st.integers(0, 6)), "0")
        reason = "registry line needs 6 fields, got 7"
    registry[i] = " ".join(fields)
    return rows, ("registry", i), lambda where: reason


FAULTS = ["bad-int", "bad-hex", "5-fields", "7-fields", "duplicate-link", "unknown-device"]


@settings(max_examples=120, deadline=None)
@given(scenarios(), st.sampled_from(FAULTS), st.data())
def test_a_bad_row_fails_on_its_line_in_any_layout(sections, kind, data):
    rows, row, reason = _corrupt(kind, sections, data.draw)
    text, where = data.draw(layouts(rows))
    message = f"line {where[row]}: {reason(where)}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(text)
