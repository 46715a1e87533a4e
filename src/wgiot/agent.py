"""Shared plumbing for the three protocol agents.

The topology is fixed and named here once: the WBRAC is the agent WBRAC, the
access point is MAP, and the devices are icd-<n>.  Every agent (IcdAgent,
MapAgent, WbracService) offers the same interface:

- state_name: a short name of its current state, written to the trace;
- handle(sender, msg, now) -> Transition: feed one delivered frame;
- tick(now) -> Transition: only on agents that ever return tick_at (which
  only IcdAgent does), called when the requested time arrives.

One sender rule holds for all three: an agent picks a table of per-frame
handlers by the frame's sender, then looks the frame's exact type up in it;
a sender with no table, or a type with no entry, returns unexpected(...) and
changes nothing.  The WBRAC obeys only MAP.  The access point keeps one
table for frames from WBRAC and one for frames from devices.  A device obeys
MAP, and from WBRAC only the network broadcasts (AccessParameterMessage,
ParameterUpdateOrder).  The device's handlers check its state themselves.
Handlers reach crypto, wire, unexpected and the agents' public methods by
attribute lookup at call time, which is what lets an outside tracer wrap
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from . import wire

WBRAC = "wbrac"  # the authentication center's agent name
MAP = "map-1"  # the access point's agent name
NO_HANDLERS = MappingProxyType({})  # the table of a sender an agent does not obey


class ProtocolError(Exception):
    pass


class NotIdle(ProtocolError):
    pass


@dataclass(slots=True)
class Transition:
    """Result of feeding one message or tick to an agent.

    out holds (destination agent id, frame) pairs; tick_at asks the harness
    for a future tick; note is a short trace annotation (e.g. the reason an
    unexpected frame was dropped).
    """

    out: list[tuple[str, wire.WireMessage]] = field(default_factory=list)
    tick_at: int | None = None
    note: str = ""


def unexpected(state_name: str, msg: wire.WireMessage) -> Transition:
    return Transition(note=f"unexpected {wire.tag_name(msg)} in {state_name}")
