"""Shared plumbing for the three protocol agents.

Every agent (IcdAgent, MapAgent, WbracService) offers the same interface:

- agent_id: its name in the simulator;
- state_name: a short name of its current state, written to the trace;
- handle(sender, msg, now) -> Transition: feed one delivered frame;
- tick(now) -> Transition: only on agents that ever return tick_at (which
  only IcdAgent does), called when the requested time arrives.

Each agent's handle looks the frame's exact type up in a class-level table
of per-frame handlers; a type with no entry returns unexpected(...).  The
access point keeps two tables, one for frames from the WBRAC and one for
frames from devices, so a frame from the wrong side is unexpected too.  The
device takes frames only from its access point, and from the WBRAC only the
network broadcasts (AccessParameterMessage, ParameterUpdateOrder); a frame
from any other sender is unexpected.  The device's handlers check its state
themselves.  Handlers reach crypto, wire, unexpected and the agents' public
methods by attribute lookup at call time, which is what lets an outside
tracer wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import wire


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
