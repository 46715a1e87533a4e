"""The wireless base register authentication center (WBRAC).

Holds the subscriber registry and the network's MPC, `mpc`, which it draws
anew and broadcasts at most once per `mpc_period` ms, and runs the server
side of the update-value and unique-challenge computations.  Only the WBRAC
holds device secrets.  The access point receives a device's expected AAC
and the WMAP of its unique challenge at registration (`map_expectations`),
and that pair's signature from `sign_challenge` when the device's first
answer needs it, which few devices ever give; a MapChallengeResponse
carries material for after the update, its pair signed at once, since the
frame is on the wire (`map_provision`).

Every frame it obeys names its device by icd_in and is answered to MAP; its
dispatch tables say which frames it obeys from which sender (frames.md lists
them; see agent.py).  A frame that names no registered device, or an update
frame of a device with no update in progress, is unexpected and changes
nothing; an UpdateRequest for a device whose update is already in progress
changes nothing either, with its own note.  The 32-byte TO_MAP is checked
before it is signed, so a 10-byte value is never signed in the
unique-challenge domain.  Its agent name, WBRAC, is not its 64-bit network
identifier, `crypto.WBRAC_ID`: the simulator models one network, so that
identifier is a constant, and every unique-challenge signature reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto, wire
from .agent import MAP, NO_HANDLERS, ProtocolError, Transition, unexpected


class TooEarly(ProtocolError):
    pass


class UpdateInProgress(ProtocolError):
    pass


class NoPendingUpdate(ProtocolError):
    pass


DEFAULT_MPC_PERIOD_MS = 60_000

# The WBRAC's fixed results, shared (see agent.py).
COMMITTED = Transition(note="committed")
REJECTED = Transition(note="rejected")


@dataclass(slots=True)
class SubscriberRecord:
    """A device's registry row.  `sd` is its current SD, which a confirmed
    update moves; `provisioned_sd` is the SD it was registered with, the
    row's own bytes, which signs the access point's registration pair."""

    icd_in: int
    esn: int
    sc_auth_k: bytes
    sd: bytes
    provisioned_sd: bytes
    pending_sd_new: bytes | None = None


class WbracService:
    def __init__(self, rng, mpc_period: int):
        self.rng = rng
        self.registry: dict[int, SubscriberRecord] = {}
        self.mpc = bytes(16)  # the MPC last drawn, the bytes its AccessParameterMessage carries
        self.mpc_period = mpc_period
        self.last_rotation: int | None = None

    state_name = "-"

    # -- registry management --

    def provision(self, icd_in: int, esn: int, sc_auth_k: bytes, sd: bytes) -> SubscriberRecord:
        """Register a device; `simnet.scenario_faults` has already refused a
        registry in which two rows share an `icd_in`."""
        rec = SubscriberRecord(icd_in, esn, sc_auth_k, sd, sd)
        self.registry[icd_in] = rec
        return rec

    def map_expectations(self, rec: SubscriberRecord) -> tuple[bytes, bytes]:
        """A newly registered device's material for the access point: the
        expected AAC and the WMAP of its unique challenge, under the SD it
        was registered with.  The pair's signature is left to
        `sign_challenge`, at its first use."""
        wmap = crypto.gen_wmap(self.rng)
        sd = rec.provisioned_sd
        return crypto.authenticate_signature(sd, rec.esn, rec.icd_in, rec.sc_auth_k), wmap

    def map_provision(
        self, rec: SubscriberRecord, sd: bytes | None = None
    ) -> tuple[bytes, bytes, bytes]:
        """Verification material for an access point: the expected AAC plus a
        signed unique-challenge pair (WMAP, its signature) for the given
        (default: current) service data."""
        sd = sd or rec.sd
        wmap = crypto.gen_wmap(self.rng)
        sign = crypto.unique_challenge_signature(sd, wmap, rec.esn, rec.icd_in)
        aac = crypto.authenticate_signature(sd, rec.esn, rec.icd_in, rec.sc_auth_k)
        return aac, wmap, sign

    def sign_challenge(self, icd_in: int, wmap: bytes) -> bytes:
        """The signature of a registration pair's WMAP, which the access
        point asks for when a device's answer first needs it: a provisioning
        channel, as `map_expectations` is, not a frame.  It signs with the
        SD the device was registered with, not `sd`, which a confirmation
        the access point never acted on may have moved."""
        rec = self.registry[icd_in]
        return crypto.unique_challenge_signature(rec.provisioned_sd, wmap, rec.esn, icd_in)

    # -- MPC rotation --

    def rotate_mpc(self, now: int) -> wire.AccessParameterMessage:
        last = self.last_rotation
        if last is not None and now < last + self.mpc_period:
            raise TooEarly(f"rotation at {now}, last at {last}")
        self.mpc = self.rng.draw_bytes(16)
        self.last_rotation = now
        return wire.AccessParameterMessage(self.mpc)

    # -- update-value flow --

    def begin_update(self, icd_in: int) -> wire.UpdateMessage:
        rec = self.registry[icd_in]
        if rec.pending_sd_new is not None:
            raise UpdateInProgress(icd_in)
        rand = crypto.gen_update_rand(self.rng)
        rec.pending_sd_new = crypto.sd_from_rand(rand, rec.esn, rec.icd_in, rec.sc_auth_k)
        return wire.UpdateMessage(icd_in, rand)

    def commit(self, icd_in: int, confirmed: bool) -> None:
        rec = self.registry[icd_in]
        if rec.pending_sd_new is None:
            raise NoPendingUpdate(icd_in)
        if confirmed:
            rec.sd = rec.pending_sd_new
        rec.pending_sd_new = None

    # -- frame handling (requests relayed by the access point) --

    def handle(self, sender: str, msg: wire.WireMessage, now: int) -> Transition:
        handler = self._BY_SENDER.get(sender, self._FROM_DEVICE).get(type(msg))
        if handler is None:
            return unexpected(self.state_name, msg)
        return handler(self, sender, msg, now)

    def _on_update_request(self, sender: str, msg: wire.UpdateRequest, now: int) -> Transition:
        if msg.icd_in not in self.registry:
            return unexpected(self.state_name, msg)
        try:
            update = self.begin_update(msg.icd_in)
        except UpdateInProgress:
            return Transition(note="update already in progress")
        return Transition(out=[(MAP, update)])

    def _on_challenge_forward(
        self, sender: str, msg: wire.MapChallengeForward, now: int
    ) -> Transition:
        rec = self.registry.get(msg.icd_in)
        if rec is None or rec.pending_sd_new is None:
            return unexpected(self.state_name, msg)
        # the device's TO_MAP, signed with the pending service data, and
        # nothing shorter (see the module docstring)
        crypto.check_bytes("to_map", msg.to_map, 32)
        sd_new = rec.pending_sd_new
        sign = crypto.authorization_signature(sd_new, msg.to_map, rec.esn, rec.icd_in)
        # the expectations the access point verifies the device's
        # re-authentication with ride with the signature, so the two cannot
        # be lost apart (frames.md)
        material = self.map_provision(rec, sd=sd_new)
        return Transition(out=[(MAP, wire.MapChallengeResponse(msg.icd_in, sign, *material))])

    def _on_update_outcome(
        self, sender: str, msg: wire.UpdateConfirmation | wire.UpdateRejection, now: int
    ) -> Transition:
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
    _FROM_DEVICE = NO_HANDLERS
