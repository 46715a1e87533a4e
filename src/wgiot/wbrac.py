"""The wireless base register authentication center (WBRAC).

Holds the subscriber registry, rotates and broadcasts the MPC, and runs the
server side of the update-value and unique-challenge computations.  Only the
WBRAC holds device secrets; the access point receives precomputed
expectations through provisioning pushes.

The WBRAC obeys frames only from the access point (MAP): update requests,
forwarded challenges and forwarded update outcomes, each naming its device
by icd_in and answered to MAP.
A frame from any other sender is noted as unexpected and changes nothing,
so no one else can start or commit a device's update flow.  Its agent name,
WBRAC, is not its 64-bit network identifier `wbrac_id`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto, wire
from .agent import MAP, NO_HANDLERS, ProtocolError, Transition, unexpected


class DuplicateIcd(ProtocolError):
    pass


class TooEarly(ProtocolError):
    pass


class UpdateInProgress(ProtocolError):
    pass


class NoPendingUpdate(ProtocolError):
    pass


DEFAULT_MPC_PERIOD_MS = 60_000
DEFAULT_WBRAC_ID = 0x5747_0000_0000_0001

# The WBRAC's fixed results, shared (see agent.py).
COMMITTED = Transition(note="committed")
REJECTED = Transition(note="rejected")


@dataclass(slots=True)
class SubscriberRecord:
    icd_in: int
    wgie: crypto.WgieRecord
    sc_auth_k: crypto.ScAuthKey
    sd: crypto.SdPair
    pending_sd_new: crypto.SdPair | None = None


@dataclass(slots=True)
class MpcSchedule:
    """The network's MPC rotation.  `current` is the 16-byte MPC last drawn,
    the bytes object its AccessParameterMessage carries."""

    period_ms: int = DEFAULT_MPC_PERIOD_MS
    current: bytes = bytes(16)
    last_rotation: int | None = None


class WbracService:
    def __init__(
        self,
        wbrac_id: int = DEFAULT_WBRAC_ID,
        schedule: MpcSchedule | None = None,
        rng=None,
    ):
        self.wbrac_id = wbrac_id
        self.rng = rng
        self.registry: dict[int, SubscriberRecord] = {}
        self.schedule = schedule or MpcSchedule()

    state_name = "-"

    # -- registry management --

    def provision(
        self, icd_in: int, wgie: crypto.WgieRecord, sc_auth_k: crypto.ScAuthKey, sd: crypto.SdPair
    ) -> SubscriberRecord:
        if icd_in in self.registry:
            raise DuplicateIcd(icd_in)
        rec = SubscriberRecord(icd_in, wgie, sc_auth_k, sd)
        self.registry[icd_in] = rec
        return rec

    def expected_aac(self, rec: SubscriberRecord, sd: crypto.SdPair | None = None) -> bytes:
        return crypto.authenticate_signature(sd or rec.sd, rec.wgie.esn, rec.icd_in, rec.sc_auth_k)

    def map_provision(
        self, rec: SubscriberRecord, sd: crypto.SdPair | None = None
    ) -> wire.MapProvision:
        """Verification material for an access point: the expected AAC plus a
        precomputed unique-challenge pair for the given (default: current)
        service data."""
        sd = sd or rec.sd
        wmap = crypto.gen_wmap(self.rng)
        composite = crypto.compose_unique_challenge(wmap, self.wbrac_id)
        sign = crypto.authorization_signature(sd, composite, rec.wgie.esn, rec.icd_in)
        return wire.MapProvision(rec.icd_in, self.expected_aac(rec, sd), wmap, sign)

    # -- MPC rotation --

    def rotate_mpc(self, now: int) -> wire.AccessParameterMessage:
        sched = self.schedule
        if sched.last_rotation is not None and now < sched.last_rotation + sched.period_ms:
            raise TooEarly(f"rotation at {now}, last at {sched.last_rotation}")
        sched.current = self.rng.draw_bytes(16)
        sched.last_rotation = now
        return wire.AccessParameterMessage(sched.current)

    # -- update-value flow --

    def begin_update(self, icd_in: int) -> wire.UpdateMessage:
        rec = self.registry[icd_in]
        if rec.pending_sd_new is not None:
            raise UpdateInProgress(icd_in)
        rand = crypto.gen_update_rand(self.rng)
        rec.pending_sd_new = crypto.sd_from_rand(rand, rec.wgie.esn, rec.icd_in, rec.sc_auth_k)
        return wire.UpdateMessage(icd_in, rand)

    def answer_challenge(self, icd_in: int, to_map: bytes) -> bytes:
        """Sign the device's 32-byte TO_MAP with the pending service data.
        The length check keeps a 10-byte value from being signed in the
        unique-challenge domain."""
        crypto.check_bytes("to_map", to_map, 32)
        rec = self.registry[icd_in]
        if rec.pending_sd_new is None:
            raise NoPendingUpdate(icd_in)
        return crypto.authorization_signature(rec.pending_sd_new, to_map, rec.wgie.esn, rec.icd_in)

    def commit(self, icd_in: int, confirmed: bool) -> None:
        rec = self.registry[icd_in]
        if rec.pending_sd_new is None:
            raise NoPendingUpdate(icd_in)
        if confirmed:
            rec.sd = rec.pending_sd_new
        rec.pending_sd_new = None

    # -- frame handling (requests relayed by the access point) --

    def handle(self, sender: str, msg: wire.WireMessage, now: int) -> Transition:
        handler = self._BY_SENDER.get(sender, NO_HANDLERS).get(type(msg))
        if handler is None:
            return unexpected(self.state_name, msg)
        return handler(self, msg)

    def _on_update_request(self, msg: wire.UpdateRequest) -> Transition:
        rec = self.registry.get(msg.icd_in)
        if rec is None:
            return Transition(note=f"update request for unknown icd {msg.icd_in}")
        try:
            update = self.begin_update(msg.icd_in)
        except UpdateInProgress:
            return Transition(note="update already in progress")
        return Transition(out=[(MAP, update)])

    def _on_challenge_forward(self, msg: wire.MapChallengeForward) -> Transition:
        rec = self.registry.get(msg.icd_in)
        if rec is None:
            return Transition(note=f"challenge for unknown icd {msg.icd_in}")
        try:
            sign = self.answer_challenge(msg.icd_in, msg.to_map)
        except NoPendingUpdate:
            return Transition(note="no pending update")
        # push the post-commit expectations ahead of the response so the
        # access point can verify the device's re-authentication
        prov = self.map_provision(rec, sd=rec.pending_sd_new)
        return Transition(out=[(MAP, prov), (MAP, wire.MapChallengeResponse(msg.icd_in, sign))])

    def _on_update_outcome(self, msg: wire.UpdateConfirmation | wire.UpdateRejection) -> Transition:
        rec = self.registry.get(msg.icd_in)
        if rec is None or rec.pending_sd_new is None:
            return unexpected(self.state_name, msg)
        confirmed = type(msg) is wire.UpdateConfirmation
        self.commit(rec.icd_in, confirmed)
        return COMMITTED if confirmed else REJECTED

    _FROM_MAP = {
        wire.UpdateRequest: _on_update_request,
        wire.MapChallengeForward: _on_challenge_forward,
        wire.UpdateConfirmation: _on_update_outcome,
        wire.UpdateRejection: _on_update_outcome,
    }
    _BY_SENDER = {MAP: _FROM_MAP}
