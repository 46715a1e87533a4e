"""State machine for the mobile access point (MAP).

The access point verifies presented GUIDs against expectations provisioned
by the WBRAC (it never holds device secrets) and relays challenge traffic
between device and WBRAC.  A device's registration pair, the WMAP of its
unique challenge and that WMAP's signature, reaches the access point only
when it first challenges the device, from the WBRAC's `registration_pair`
that the access point is built with (see `MapRecord`).  A failed
comparison is remedied by a fixed rule (`remedy`): an MPC or RMC mismatch
starts the update-value flow, an AAC-only mismatch gets a unique
challenge, and all three wrong is denied.
Every update-flow frame names its device by icd_in, so each flow's record
is found by that id however many flows are in progress; one that names no
registered device is unexpected and changes nothing.  The access point
acts on a device's AuthRequest, UpdateConfirmation or UpdateRejection only
when its icd_in is the sending device's own, and on an UpdateConfirmation
only once it has relayed the flow's response: a device confirms only the
order that carries it, so an earlier confirmation, such as a replayed one,
is unexpected and changes nothing.  Its dispatch tables say which
frames it obeys from which sender (frames.md lists them; see agent.py).

What is the same on every accept is built once.  The access point sends
one module-level `AUTH_ACCEPT`, from both the GUID match and the passed
challenge, and one `CHALLENGE_ACK`; frames are frozen, and a frame without
fields has one encoding (see wire.py), so every accept shares its bytes as
well.  `verify` still splits each GUID through `crypto.decompose_guid`,
and when all three fields match it returns the one `NO_MISMATCH` at once;
it builds a mismatch set only when a field does not match.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from . import crypto, wire
from .agent import MPC_UPDATED, RMC_INCREMENTED, WBRAC, ProtocolError, Transition, unexpected

REASON_VERIFY_FAILED = 0x01
REASON_UNKNOWN_ICD = 0x02

# The access point's fixed results and frames, shared (see agent.py);
# frames are frozen.
ACTIVATION = Transition(note="activation")
AUTH_ACCEPT = wire.AuthAccept()
CHALLENGE_ACK = wire.ChallengeAck()
NO_MISMATCH = frozenset()  # `verify`'s result for a GUID that matches

# `MapRecord.pending` while its update flow waits for the WBRAC's response
AWAITING_RESPONSE = "awaiting-response"


class UnknownIcd(ProtocolError):
    pass


CHALLENGE = "challenge"
UPDATE = "update"
DENY = "deny"


def remedy(mismatch: frozenset) -> str:
    """The remediation action for a set of mismatched GUID fields.

    Any mismatch involving MPC or RMC starts an update-value run (those
    drift by design as the network reissues them); an AAC-only mismatch
    gets a unique challenge; all three wrong is denied outright.
    """
    if mismatch == frozenset({"AAC", "MPC", "RMC"}):
        return DENY
    if "MPC" in mismatch or "RMC" in mismatch:
        return UPDATE
    return CHALLENGE


@dataclass(slots=True)
class MapRecord:
    """Per-device expectations: the 16-byte RMC, the expected AAC and the
    unique-challenge pair the device's GUID and answer must match.  The
    pair a device is registered with, `wmap` and `challenge_sign`, is
    `None` until the access point first challenges the device; it then
    asks the WBRAC for the pair and keeps it, so a second challenge asks
    for nothing.  During an update flow `pending` is `AWAITING_RESPONSE`,
    then the relayed `wire.MapChallengeResponse`, whose material, its pair
    signed, the record takes, as the frame's own bytes, when the device
    confirms."""

    icd_in: int
    icd_agent_id: str
    expected_rmc: bytes
    expected_aac: bytes
    wmap: bytes | None = None
    challenge_sign: bytes | None = None
    challenge_outstanding: bool = False
    pending: str | wire.MapChallengeResponse | None = None


class MapAgent:
    def __init__(self, mpc: bytes, registration_pair: Callable[[int], tuple[bytes, bytes]]):
        self.mpc = mpc  # network-wide 16 bytes; every device's GUID is checked against it
        # icd_in -> the device's registration pair (WMAP, signature), from the
        # WBRAC out of band, as `provision` is
        self.registration_pair = registration_pair
        self.records: dict[int, MapRecord] = {}
        self._by_agent: dict[str, MapRecord] = {}

    state_name = "-"

    def provision(
        self,
        icd_agent_id: str,
        icd_in: int,
        rmc: bytes,
        expected_aac: bytes,
    ) -> None:
        """Register a device with the material of the WBRAC's `map_expectations`."""
        rec = MapRecord(icd_in, icd_agent_id, rmc, expected_aac)
        self.records[rec.icd_in] = rec
        self._by_agent[icd_agent_id] = rec

    # -- verification --

    def verify(self, icd_in: int, req: wire.AuthRequest) -> frozenset:
        """Return the set of mismatched GUID fields; empty means accept.
        The fields are compared as packed bytes, and a match returns the
        one `NO_MISMATCH` without building a set."""
        rec = self.records.get(icd_in)
        if rec is None:
            raise UnknownIcd(icd_in)
        aac, mpc, rmc = crypto.decompose_guid(req.guid)
        if aac == rec.expected_aac and mpc == self.mpc and rmc == rec.expected_rmc:
            return NO_MISMATCH
        mismatch = set()
        if aac != rec.expected_aac:
            mismatch.add("AAC")
        if mpc != self.mpc:
            mismatch.add("MPC")
        if rmc != rec.expected_rmc:
            mismatch.add("RMC")
        return frozenset(mismatch)

    # -- transitions --

    def handle(self, sender: str, msg: wire.WireMessage, now: int) -> Transition:
        handler = self._BY_SENDER.get(sender, self._FROM_DEVICE).get(type(msg))
        if handler is None:
            return unexpected(self.state_name, msg)
        return handler(self, sender, msg, now)

    # frames from the WBRAC

    def _on_access_parameter(
        self, sender: str, msg: wire.AccessParameterMessage, now: int
    ) -> Transition:
        self.mpc = msg.mpc
        return MPC_UPDATED

    def _on_parameter_update(
        self, sender: str, msg: wire.ParameterUpdateOrder, now: int
    ) -> Transition:
        for rec in self.records.values():
            rec.expected_rmc = crypto.rmc_incremented(rec.expected_rmc)
        return RMC_INCREMENTED

    def _on_update_message(self, sender: str, msg: wire.UpdateMessage, now: int) -> Transition:
        rec = self.records.get(msg.icd_in)
        if rec is None:
            return unexpected(self.state_name, msg)
        rec.pending = AWAITING_RESPONSE
        order = wire.UpdateOrder(msg.rand, rec.expected_rmc)
        return Transition(out=[(rec.icd_agent_id, order)])

    def _on_challenge_response(
        self, sender: str, msg: wire.MapChallengeResponse, now: int
    ) -> Transition:
        rec = self.records.get(msg.icd_in)
        if rec is None or rec.pending is not AWAITING_RESPONSE:
            # unknown, no update pending, or the flow's response already relayed
            return unexpected(self.state_name, msg)
        rec.pending = msg
        return Transition(
            out=[(rec.icd_agent_id, wire.MapChallengeResponseOrder(msg.auth_sign_map))]
        )

    # frames from devices

    def _on_activation(self, sender: str, msg: wire.SecureActivation, now: int) -> Transition:
        return ACTIVATION

    def _on_auth_request(self, sender: str, msg: wire.AuthRequest, now: int) -> Transition:
        rec = self.records.get(msg.icd_in)
        if rec is None or self._by_agent.get(sender) is not rec:
            # unknown, or not the sender's own icd_in
            return Transition(
                out=[(sender, wire.AccessDenied(REASON_UNKNOWN_ICD))], note="unknown-icd"
            )
        mismatch = self.verify(msg.icd_in, msg)
        if not mismatch:
            # a challenge sent earlier is answered by this accept
            rec.challenge_outstanding = False
            return Transition(out=[(sender, AUTH_ACCEPT)], note="guid-match")

        action = remedy(mismatch)
        note = "mismatch " + ",".join(sorted(mismatch))
        if action == CHALLENGE:
            if rec.wmap is None:
                rec.wmap, rec.challenge_sign = self.registration_pair(rec.icd_in)
            rec.challenge_outstanding = True
            return Transition(
                out=[(sender, wire.AuthenticationChallenge(rec.wmap))],
                note=note + " -> challenge",
            )
        if action == UPDATE:
            if rec.pending is not None:
                return Transition(note=note + " -> update already pending")
            # refresh the device's stale MPC alongside the update request
            return Transition(
                out=[
                    (WBRAC, wire.UpdateRequest(msg.icd_in)),
                    (sender, wire.AccessParameterMessage(self.mpc)),
                ],
                note=note + " -> update",
            )
        return Transition(
            out=[(sender, wire.AccessDenied(REASON_VERIFY_FAILED))], note=note + " -> deny"
        )

    def _on_challenge_order(
        self, sender: str, msg: wire.MobileAccessChallengeOrder, now: int
    ) -> Transition:
        rec = self._by_agent.get(sender)
        if rec is None:
            return unexpected(self.state_name, msg)
        return Transition(
            out=[
                (sender, CHALLENGE_ACK),
                (WBRAC, wire.MapChallengeForward(rec.icd_in, msg.to_map)),
            ]
        )

    def _on_update_outcome(
        self, sender: str, msg: wire.UpdateConfirmation | wire.UpdateRejection, now: int
    ) -> Transition:
        rec = self._by_agent.get(sender)
        if rec is None or rec.icd_in != msg.icd_in or rec.pending is None:
            # unknown, not the sender's own icd_in, or no update pending
            return unexpected(self.state_name, msg)
        if type(msg) is wire.UpdateRejection:
            rec.pending = None
            return Transition(out=[(WBRAC, msg)], note="update-discarded")
        response = rec.pending
        if response is AWAITING_RESPONSE:
            # a device confirms only the order that carries the response
            return unexpected(self.state_name, msg)
        rec.pending = None
        rec.expected_aac = response.expected_aac
        rec.wmap = response.wmap
        rec.challenge_sign = response.challenge_sign
        rec.challenge_outstanding = False
        return Transition(out=[(WBRAC, msg)], note="update-committed")

    def _on_challenge_answer(
        self, sender: str, msg: wire.AuthChallengeAnswer, now: int
    ) -> Transition:
        rec = self._by_agent.get(sender)
        if rec is None or not rec.challenge_outstanding:
            return unexpected(self.state_name, msg)
        rec.challenge_outstanding = False
        if msg.auth_sign_map == rec.challenge_sign:
            return Transition(out=[(sender, AUTH_ACCEPT)], note="challenge-passed")
        return Transition(
            out=[(sender, wire.AccessDenied(REASON_VERIFY_FAILED))],
            note="challenge-failed -> deny",
        )

    _FROM_WBRAC = {
        wire.AccessParameterMessage: _on_access_parameter,
        wire.ParameterUpdateOrder: _on_parameter_update,
        wire.UpdateMessage: _on_update_message,
        wire.MapChallengeResponse: _on_challenge_response,
    }
    _FROM_DEVICE = {
        wire.SecureActivation: _on_activation,
        wire.AuthRequest: _on_auth_request,
        wire.MobileAccessChallengeOrder: _on_challenge_order,
        wire.UpdateConfirmation: _on_update_outcome,
        wire.UpdateRejection: _on_update_outcome,
        wire.AuthChallengeAnswer: _on_challenge_answer,
    }
    _BY_SENDER = {WBRAC: _FROM_WBRAC}
