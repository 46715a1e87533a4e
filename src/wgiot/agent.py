"""Shared plumbing for the three protocol agents.

Every agent (IcdAgent, MapAgent, WbracService) offers the same interface:

- agent_id: its name in the simulator;
- state_name: a short name of its current state, written to the trace;
- handle(sender, msg, now) -> Transition: feed one delivered frame;
- tick(now) -> Transition: only on agents that ever return tick_at (which
  only IcdAgent does), called when the requested time arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import wire


class ProtocolError(Exception):
    pass


class NotIdle(ProtocolError):
    pass


@dataclass
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
