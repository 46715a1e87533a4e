"""State machine for the ICD (internet connected device).

The device initiates activation, assembles its GUID, answers update-value
and unique-challenge flows, and enforces the 1 s confirmation timer.  The
new service data computed during an update is committed exactly once (on a
matching confirmation order) or discarded exactly once (mismatch/timeout).
An authenticated device's session key is derived from its SD when it is
read (`IcdAgent.session`), not when the device is accepted: nothing in a run
reads it, since the simulator models no data phase.
Its dispatch tables say which frames it obeys from which sender (frames.md
lists them; see agent.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto, wire
from .agent import (
    MAP,
    MPC_UPDATED,
    NO_HANDLERS,
    RMC_INCREMENTED,
    WBRAC,
    NotIdle,
    Transition,
    unexpected,
)
from .wire import value

CONFIRM_TIMEOUT_MS = 1000  # confirmation order must arrive within 1 s of the ack

# The device's fixed results, shared (see agent.py).
AUTH_ACCEPTED = Transition(note="authenticated")
UPDATE_TIMEOUT = Transition(note="update-timeout")
NOTHING = Transition()  # a tick that finds nothing to do


# -- states -----------------------------------------------------------------


@value
class Idle:
    name = "Idle"


@value
class AwaitingAuthResult:
    name = "AwaitingAuthResult"


@value
class UpdateAwaitingAck:
    sd_new: bytes
    local_sign: bytes
    name = "UpdateAwaitingAck"


@value
class UpdateAwaitingConfirmation:
    sd_new: bytes
    local_sign: bytes
    deadline: int  # virtual ms; arrival at exactly the deadline is in time
    name = "UpdateAwaitingConfirmation"


@value
class Authenticated:
    """Accepted by the access point.  The state holds no session key:
    `IcdAgent.session` derives it from `cfg.sd` when read.  That is the SD
    the device authenticated under, since `cfg.sd` changes only on the
    commit of an update flow, which leaves the device `AwaitingAuthResult`
    until it is accepted again."""

    name = "Authenticated"


@value
class Denied:
    name = "Denied"


# The states without fields, one shared instance each.
IDLE = Idle()
AWAITING_AUTH_RESULT = AwaitingAuthResult()
AUTHENTICATED = Authenticated()
DENIED = Denied()
# Every state's name; a scenario's `reaches` may expect any of them of a device.
STATE_NAMES = frozenset(
    state.name
    for state in (Idle, AwaitingAuthResult, UpdateAwaitingAck, UpdateAwaitingConfirmation)
    + (Authenticated, Denied)
)


@dataclass(slots=True)
class IcdConfig:
    """Provisioned material plus the mutable MPC/RMC mirrors.  The key and
    the SD are the registry row's 16-byte `bytes`; the MPC is the 16 bytes
    of the last AccessParameterMessage and the RMC the 16 bytes of the last
    UpdateOrder (or the row's, packed once), each kept as its frame carries
    it."""

    icd_in: int
    esn: int
    sc_auth_k: bytes
    sd: bytes
    mpc: bytes
    rmc: bytes
    wbrac_id: int  # provisioned 64-bit network identifier for unique challenges


class IcdAgent:
    __slots__ = ("cfg", "rng", "state")

    def __init__(self, cfg: IcdConfig, rng):
        self.cfg = cfg
        self.rng = rng
        self.state = IDLE

    # -- helpers --

    @property
    def state_name(self) -> str:
        return self.state.name

    @property
    def session(self) -> bytes | None:
        """The session key, from SD2 of the SD the device authenticated
        under, while it is `Authenticated`; None in any other state.  Each
        read derives it again."""
        if isinstance(self.state, Authenticated):
            return crypto.derive_session_key(self.cfg.sd)
        return None

    def _auth_request(self) -> wire.AuthRequest:
        cfg = self.cfg
        aac = crypto.authenticate_signature(cfg.sd, cfg.esn, cfg.icd_in, cfg.sc_auth_k)
        return wire.AuthRequest(cfg.icd_in, cfg.esn, crypto.compose_guid(aac, cfg.mpc, cfg.rmc))

    # -- transitions --

    def start(self, now: int) -> Transition:
        """Send the secure activation signal followed by the GUID."""
        if not isinstance(self.state, Idle):
            raise NotIdle(f"start() in {self.state_name}")
        self.state = AWAITING_AUTH_RESULT
        return Transition(
            out=[
                (MAP, wire.SecureActivation(self.cfg.icd_in)),
                (MAP, self._auth_request()),
            ]
        )

    def handle(self, sender: str, msg: wire.WireMessage, now: int) -> Transition:
        handler = self._BY_SENDER.get(sender, self._FROM_DEVICE).get(type(msg))
        if handler is None:
            return unexpected(self.state_name, msg)
        return handler(self, sender, msg, now)

    def _on_access_parameter(
        self, sender: str, msg: wire.AccessParameterMessage, now: int
    ) -> Transition:
        self.cfg.mpc = msg.mpc
        return MPC_UPDATED

    def _on_parameter_update(
        self, sender: str, msg: wire.ParameterUpdateOrder, now: int
    ) -> Transition:
        self.cfg.rmc = crypto.rmc_incremented(self.cfg.rmc)
        return RMC_INCREMENTED

    def _on_auth_accept(self, sender: str, msg: wire.AuthAccept, now: int) -> Transition:
        if isinstance(self.state, AwaitingAuthResult):
            self.state = AUTHENTICATED
            return AUTH_ACCEPTED
        return unexpected(self.state_name, msg)

    def _on_update_order(self, sender: str, msg: wire.UpdateOrder, now: int) -> Transition:
        if isinstance(self.state, Denied):
            return unexpected(self.state_name, msg)
        cfg = self.cfg
        # the access point's expected RMC ends any drift from lost or
        # duplicated ParameterUpdateOrder broadcasts
        cfg.rmc = msg.rmc
        sd_new = crypto.sd_from_rand(msg.rand, cfg.esn, cfg.icd_in, cfg.sc_auth_k)
        to_map = crypto.gen_to_map(self.rng)
        local_sign = crypto.authorization_signature(sd_new, to_map, cfg.esn, cfg.icd_in)
        self.state = UpdateAwaitingAck(sd_new, local_sign)
        return Transition(out=[(MAP, wire.MobileAccessChallengeOrder(to_map))])

    def _on_challenge_ack(self, sender: str, msg: wire.ChallengeAck, now: int) -> Transition:
        state = self.state
        if isinstance(state, UpdateAwaitingAck):
            deadline = now + CONFIRM_TIMEOUT_MS
            self.state = UpdateAwaitingConfirmation(state.sd_new, state.local_sign, deadline)
            return Transition(tick_at=deadline + 1)
        return unexpected(self.state_name, msg)

    def _on_response_order(
        self, sender: str, msg: wire.MapChallengeResponseOrder, now: int
    ) -> Transition:
        state = self.state
        if not isinstance(state, UpdateAwaitingConfirmation):
            return unexpected(self.state_name, msg)
        if now > state.deadline:
            self.state = IDLE
            return UPDATE_TIMEOUT
        icd_in = self.cfg.icd_in
        if msg.auth_sign_map == state.local_sign:
            self.cfg.sd = state.sd_new
            self.state = AWAITING_AUTH_RESULT
            # re-authenticate with the committed service data
            return Transition(
                out=[
                    (MAP, wire.UpdateConfirmation(icd_in)),
                    (MAP, self._auth_request()),
                ],
                note="update-committed",
            )
        self.state = IDLE
        return Transition(out=[(MAP, wire.UpdateRejection(icd_in))], note="update-rejected")

    def _on_challenge(self, sender: str, msg: wire.AuthenticationChallenge, now: int) -> Transition:
        cfg = self.cfg
        composite = crypto.compose_unique_challenge(msg.wmap, cfg.wbrac_id)
        answer = crypto.authorization_signature(cfg.sd, composite, cfg.esn, cfg.icd_in)
        return Transition(out=[(MAP, wire.AuthChallengeAnswer(answer))])

    def _on_access_denied(self, sender: str, msg: wire.AccessDenied, now: int) -> Transition:
        self.state = DENIED
        return Transition(note=f"denied reason={msg.reason}")

    _FROM_WBRAC = {
        wire.AccessParameterMessage: _on_access_parameter,
        wire.ParameterUpdateOrder: _on_parameter_update,
    }
    _FROM_MAP = {
        **_FROM_WBRAC,
        wire.AuthAccept: _on_auth_accept,
        wire.UpdateOrder: _on_update_order,
        wire.ChallengeAck: _on_challenge_ack,
        wire.MapChallengeResponseOrder: _on_response_order,
        wire.AuthenticationChallenge: _on_challenge,
        wire.AccessDenied: _on_access_denied,
    }
    _BY_SENDER = {MAP: _FROM_MAP, WBRAC: _FROM_WBRAC}
    _FROM_DEVICE = NO_HANDLERS

    def tick(self, now: int) -> Transition:
        if isinstance(self.state, UpdateAwaitingConfirmation) and now > self.state.deadline:
            self.state = IDLE
            return UPDATE_TIMEOUT
        return NOTHING
