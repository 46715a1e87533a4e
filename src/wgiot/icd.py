"""State machine for the ICD (internet connected device).

The device initiates activation, assembles its GUID, answers update-value
and unique-challenge flows, and enforces the 1 s confirmation timer.  The
new service data computed during an update is committed exactly once (on a
matching confirmation order) or discarded exactly once (mismatch/timeout).

The device obeys frames only from the access point (MAP), and from the
WBRAC only the two network broadcasts, AccessParameterMessage and
ParameterUpdateOrder.  A frame from any other sender is noted as unexpected
and changes nothing.
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

CONFIRM_TIMEOUT_MS = 1000  # confirmation order must arrive within 1 s of the ack

# The device's fixed results, shared (see agent.py).
AUTHENTICATED = Transition(note="authenticated")
UPDATE_TIMEOUT = Transition(note="update-timeout")
NOTHING = Transition()  # a tick that finds nothing to do


# -- states -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Idle:
    name = "Idle"


@dataclass(frozen=True, slots=True)
class AwaitingAuthResult:
    name = "AwaitingAuthResult"


@dataclass(frozen=True, slots=True)
class UpdateAwaitingAck:
    sd_new: crypto.SdPair
    local_sign: bytes
    name = "UpdateAwaitingAck"


@dataclass(frozen=True, slots=True)
class UpdateAwaitingConfirmation:
    sd_new: crypto.SdPair
    local_sign: bytes
    deadline: int  # virtual ms; arrival at exactly the deadline is in time
    name = "UpdateAwaitingConfirmation"


@dataclass(frozen=True, slots=True)
class Authenticated:
    session: bytes
    name = "Authenticated"


@dataclass(frozen=True, slots=True)
class Denied:
    name = "Denied"


# The states without fields, one shared instance each.
IDLE = Idle()
AWAITING_AUTH_RESULT = AwaitingAuthResult()
DENIED = Denied()


@dataclass(slots=True)
class IcdConfig:
    """Provisioned material plus the mutable MPC/RMC mirrors.  The MPC is
    the 16 bytes of the last AccessParameterMessage, kept as the frame
    carries them."""

    wgie: crypto.WgieRecord
    sc_auth_k: crypto.ScAuthKey
    sd: crypto.SdPair
    mpc: bytes
    rmc: crypto.Rmc
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

    def _aac(self, sd: crypto.SdPair) -> bytes:
        return crypto.authenticate_signature(
            sd, self.cfg.wgie.esn, self.cfg.wgie.icd_in, self.cfg.sc_auth_k
        )

    def _auth_request(self) -> wire.AuthRequest:
        guid = crypto.compose_guid(self._aac(self.cfg.sd), self.cfg.mpc, self.cfg.rmc)
        return wire.AuthRequest(self.cfg.wgie.icd_in, self.cfg.wgie.esn, guid)

    # -- transitions --

    def start(self, now: int) -> Transition:
        """Send the secure activation signal followed by the GUID."""
        if not isinstance(self.state, Idle):
            raise NotIdle(f"start() in {self.state_name}")
        self.state = AWAITING_AUTH_RESULT
        return Transition(
            out=[
                (MAP, wire.SecureActivation(self.cfg.wgie.icd_in)),
                (MAP, self._auth_request()),
            ]
        )

    def handle(self, sender: str, msg: wire.WireMessage, now: int) -> Transition:
        handler = self._BY_SENDER.get(sender, NO_HANDLERS).get(type(msg))
        if handler is None:
            return unexpected(self.state_name, msg)
        return handler(self, msg, now)

    def _on_access_parameter(self, msg: wire.AccessParameterMessage, now: int) -> Transition:
        self.cfg.mpc = msg.mpc
        return MPC_UPDATED

    def _on_parameter_update(self, msg: wire.ParameterUpdateOrder, now: int) -> Transition:
        self.cfg.rmc = self.cfg.rmc.incremented()
        return RMC_INCREMENTED

    def _on_auth_accept(self, msg: wire.AuthAccept, now: int) -> Transition:
        if isinstance(self.state, AwaitingAuthResult):
            self.state = Authenticated(crypto.derive_session_key(self.cfg.sd))
            return AUTHENTICATED
        return unexpected(self.state_name, msg)

    def _on_update_order(self, msg: wire.UpdateOrder, now: int) -> Transition:
        if isinstance(self.state, Denied):
            return unexpected(self.state_name, msg)
        cfg = self.cfg
        # the access point's expected RMC ends any drift from lost or
        # duplicated ParameterUpdateOrder broadcasts
        cfg.rmc = crypto.Rmc(int.from_bytes(msg.rmc, "big"))
        sd_new = crypto.sd_from_rand(msg.rand, cfg.wgie.esn, cfg.wgie.icd_in, cfg.sc_auth_k)
        to_map = crypto.gen_to_map(self.rng)
        local_sign = crypto.authorization_signature(sd_new, to_map, cfg.wgie.esn, cfg.wgie.icd_in)
        self.state = UpdateAwaitingAck(sd_new, local_sign)
        return Transition(out=[(MAP, wire.MobileAccessChallengeOrder(to_map))])

    def _on_challenge_ack(self, msg: wire.ChallengeAck, now: int) -> Transition:
        state = self.state
        if isinstance(state, UpdateAwaitingAck):
            deadline = now + CONFIRM_TIMEOUT_MS
            self.state = UpdateAwaitingConfirmation(state.sd_new, state.local_sign, deadline)
            return Transition(tick_at=deadline + 1)
        return unexpected(self.state_name, msg)

    def _on_response_order(self, msg: wire.MapChallengeResponseOrder, now: int) -> Transition:
        state = self.state
        if not isinstance(state, UpdateAwaitingConfirmation):
            return unexpected(self.state_name, msg)
        if now > state.deadline:
            self.state = IDLE
            return UPDATE_TIMEOUT
        icd_in = self.cfg.wgie.icd_in
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

    def _on_challenge(self, msg: wire.AuthenticationChallenge, now: int) -> Transition:
        cfg = self.cfg
        composite = crypto.compose_unique_challenge(msg.wmap, cfg.wbrac_id)
        answer = crypto.authorization_signature(cfg.sd, composite, cfg.wgie.esn, cfg.wgie.icd_in)
        return Transition(out=[(MAP, wire.AuthChallengeAnswer(answer))])

    def _on_access_denied(self, msg: wire.AccessDenied, now: int) -> Transition:
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

    def tick(self, now: int) -> Transition:
        if isinstance(self.state, UpdateAwaitingConfirmation) and now > self.state.deadline:
            self.state = IDLE
            return UPDATE_TIMEOUT
        return NOTHING
