"""Shared plumbing for the three protocol agents.

The topology is fixed and named here once: one network, whose WBRAC is the
agent WBRAC (its 64-bit network identifier is `crypto.WBRAC_ID`, which only
the unique challenge reads), one access point, MAP, and the devices,
icd-<n>.  Every agent (IcdAgent, MapAgent, WbracService) offers the same
interface:

- state_name: a short name of its current state, written to the trace;
- handle(sender, msg, now) -> Transition: feed one delivered frame;
- tick(now) -> Transition: only on agents that ever return tick_at (which
  only IcdAgent does), called when the requested time arrives.

The device's `start(now)` returns a Transition too.  An entry point that
cannot act returns a result and changes nothing; it does not raise: a start
of a device that is not Idle returns a `skipped:` note, and a frame that an
agent has no handler for, or that names no registered device or no update
flow in progress, returns unexpected(...), the one answer to a frame an
agent cannot act on.  The only agent exception the simulator catches is
`wbrac.TooEarly`, from a scheduled MPC rotation.

All three dispatch a frame the same way.  Every handler takes (self,
sender, msg, now).  `handle` picks the agent's table for the sender,
`_BY_SENDER[sender]` for WBRAC or MAP and `_FROM_DEVICE` for any other
sender (NO_HANDLERS where the agent obeys no one else), then looks the
frame's exact type up in it; a type with no entry returns unexpected(...)
and changes nothing.  These tables are the only statement of which sender
each agent obeys for each frame: `simnet.route_table()` renders them as the
"Who sends what" list of frames.md.  The device's handlers check its state
themselves.  Handlers reach crypto, wire, unexpected and the agents' public
methods by attribute lookup at call time, which is what lets an outside
tracer wrap them; that is also why each agent's module keeps its own
three-line `handle`, calling its own module's `unexpected`.

Nothing changes a Transition once a handler has returned it: the simulator
only reads it.  So a result that is only a fixed note, with no frames and no
tick, is one shared module-level Transition per note (MPC_UPDATED and
RMC_INCREMENTED here, the rest beside the agent that returns them) rather
than a new one with a new list per delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from . import wire

WBRAC = "wbrac"  # the authentication center's agent name
MAP = "map-1"  # the access point's agent name
NO_HANDLERS = MappingProxyType({})  # the table of a sender an agent does not obey


class ProtocolError(Exception):
    pass


@dataclass(slots=True, init=False)
class Transition:
    """Result of feeding one message or tick to an agent.

    out holds (destination agent id, frame) pairs; tick_at asks the harness
    for a future tick; note is a short trace annotation (e.g. the reason an
    unexpected frame was dropped).  Nothing changes a Transition once it is
    returned, so fixed results are shared.

    The `__init__` is written out (`init=False`) because a handler builds one
    per frame it sends, and the dataclass's own, generated for a
    `default_factory` field, costs twice as much; like it, this one gives
    each result a new `out` list.  `__eq__` and `__repr__` are the
    dataclass's.
    """

    out: list[tuple[str, wire.WireMessage]]
    tick_at: int | None
    note: str

    def __init__(
        self,
        out: list[tuple[str, wire.WireMessage]] | None = None,
        tick_at: int | None = None,
        note: str = "",
    ):
        self.out = [] if out is None else out
        self.tick_at = tick_at
        self.note = note


# Fixed results that both the access point and the devices return.
MPC_UPDATED = Transition(note="mpc-updated")
RMC_INCREMENTED = Transition(note="rmc-incremented")


def unexpected(state_name: str, msg: wire.WireMessage) -> Transition:
    return Transition(note=f"unexpected {wire.tag_name(msg)} in {state_name}")
