"""State machine for the mobile access point (MAP).

The access point verifies presented GUIDs against expectations provisioned
by the WBRAC (it never holds device secrets) and relays challenge traffic
between device and WBRAC.  A failed comparison is remedied by a fixed rule
(`remedy`): an MPC or RMC mismatch starts the update-value flow, an
AAC-only mismatch gets a unique challenge, and all three wrong is denied.
Every update-flow frame names its device by icd_in, so each flow's record
is found by that id however many flows are in progress.  The access point
obeys the WBRAC's frames only when they come from WBRAC, and acts on a
device's AuthRequest, UpdateConfirmation or UpdateRejection only when its
icd_in is the sending device's own.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto, wire
from .agent import MPC_UPDATED, RMC_INCREMENTED, WBRAC, ProtocolError, Transition, unexpected

REASON_VERIFY_FAILED = 0x01
REASON_UNKNOWN_ICD = 0x02

# The access point's fixed results, shared (see agent.py).
ACTIVATION = Transition(note="activation")
PROVISION_APPLIED = Transition(note="provision-applied")
PROVISION_STASHED = Transition(note="provision-stashed")


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
class PendingUpdate:
    expected_sign: bytes | None = None  # the WBRAC's AUTH_SIGN_MAP, as relayed
    next_provision: wire.MapProvision | None = None


@dataclass(slots=True)
class MapRecord:
    """Per-device expectations.  `prov` is the applied `wire.MapProvision`
    frame as the WBRAC sent it; its expected AAC and unique-challenge pair
    are read as the frame's bytes.  After registration only
    `MapAgent._apply_provision` replaces it."""

    icd_in: int
    icd_agent_id: str
    expected_rmc: crypto.Rmc
    prov: wire.MapProvision
    challenge_outstanding: bool = False
    pending: PendingUpdate | None = None


class MapAgent:
    def __init__(self, mpc: bytes):
        self.mpc = mpc  # network-wide 16 bytes; every device's GUID is checked against it
        self.records: dict[int, MapRecord] = {}
        self._by_agent: dict[str, MapRecord] = {}

    state_name = "-"

    def provision(self, icd_agent_id: str, rmc: crypto.Rmc, prov: wire.MapProvision) -> None:
        """Register a device from the WBRAC's provisioning frame."""
        rec = MapRecord(prov.icd_in, icd_agent_id, rmc, prov)
        self.records[rec.icd_in] = rec
        self._by_agent[icd_agent_id] = rec

    # -- verification --

    def verify(self, icd_in: int, req: wire.AuthRequest) -> frozenset:
        """Return the set of mismatched GUID fields; empty means accept.
        The fields are compared as packed bytes."""
        rec = self.records.get(icd_in)
        if rec is None:
            raise UnknownIcd(icd_in)
        aac, mpc, rmc = crypto.decompose_guid(req.guid)
        mismatch = set()
        if aac != rec.prov.expected_aac:
            mismatch.add("AAC")
        if mpc != self.mpc:
            mismatch.add("MPC")
        if rmc != rec.expected_rmc.packed:
            mismatch.add("RMC")
        return frozenset(mismatch)

    # -- transitions --

    def handle(self, sender: str, msg: wire.WireMessage, now: int) -> Transition:
        handler = self._BY_SENDER.get(sender, self._FROM_DEVICE).get(type(msg))
        if handler is None:
            return unexpected(self.state_name, msg)
        return handler(self, sender, msg)

    # frames from the WBRAC

    def _on_access_parameter(self, sender: str, msg: wire.AccessParameterMessage) -> Transition:
        self.mpc = msg.mpc
        return MPC_UPDATED

    def _on_parameter_update(self, sender: str, msg: wire.ParameterUpdateOrder) -> Transition:
        for rec in self.records.values():
            rec.expected_rmc = rec.expected_rmc.incremented()
        return RMC_INCREMENTED

    def _on_update_message(self, sender: str, msg: wire.UpdateMessage) -> Transition:
        rec = self.records.get(msg.icd_in)
        if rec is None:
            return Transition(note=f"update for unknown icd {msg.icd_in}")
        rec.pending = PendingUpdate()
        order = wire.UpdateOrder(msg.rand, rec.expected_rmc.packed)
        return Transition(out=[(rec.icd_agent_id, order)])

    def _on_challenge_response(self, sender: str, msg: wire.MapChallengeResponse) -> Transition:
        rec = self.records.get(msg.icd_in)
        if rec is None or rec.pending is None or rec.pending.expected_sign is not None:
            # unknown, no update pending, or the flow's response already relayed
            return unexpected(self.state_name, msg)
        rec.pending.expected_sign = msg.auth_sign_map
        return Transition(
            out=[(rec.icd_agent_id, wire.MapChallengeResponseOrder(msg.auth_sign_map))]
        )

    def _on_provision(self, sender: str, msg: wire.MapProvision) -> Transition:
        rec = self.records.get(msg.icd_in)
        if rec is None:
            return Transition(note=f"provision for unknown icd {msg.icd_in}")
        if rec.pending is not None:
            rec.pending.next_provision = msg
            return PROVISION_STASHED
        self._apply_provision(rec, msg)
        return PROVISION_APPLIED

    # frames from devices

    def _on_activation(self, sender: str, msg: wire.SecureActivation) -> Transition:
        return ACTIVATION

    def _on_auth_request(self, sender: str, req: wire.AuthRequest) -> Transition:
        rec = self.records.get(req.icd_in)
        if rec is None or self._by_agent.get(sender) is not rec:
            # unknown, or not the sender's own icd_in
            return Transition(
                out=[(sender, wire.AccessDenied(REASON_UNKNOWN_ICD))], note="unknown-icd"
            )
        try:
            mismatch = self.verify(req.icd_in, req)
        except crypto.BadLength as exc:
            return Transition(note=f"malformed guid: {exc}")
        if not mismatch:
            return Transition(out=[(sender, wire.AuthAccept())], note="guid-match")

        action = remedy(mismatch)
        note = "mismatch " + ",".join(sorted(mismatch))
        if action == CHALLENGE:
            rec.challenge_outstanding = True
            return Transition(
                out=[(sender, wire.AuthenticationChallenge(rec.prov.wmap))],
                note=note + " -> challenge",
            )
        if action == UPDATE:
            if rec.pending is not None:
                return Transition(note=note + " -> update already pending")
            # refresh the device's stale MPC alongside the update request
            return Transition(
                out=[
                    (WBRAC, wire.UpdateRequest(req.icd_in)),
                    (sender, wire.AccessParameterMessage(self.mpc)),
                ],
                note=note + " -> update",
            )
        return Transition(
            out=[(sender, wire.AccessDenied(REASON_VERIFY_FAILED))], note=note + " -> deny"
        )

    def _on_challenge_order(
        self, sender: str, msg: wire.MobileAccessChallengeOrder
    ) -> Transition:
        rec = self._by_agent.get(sender)
        if rec is None:
            return unexpected(self.state_name, msg)
        return Transition(
            out=[
                (sender, wire.ChallengeAck()),
                (WBRAC, wire.MapChallengeForward(rec.icd_in, msg.to_map)),
            ]
        )

    def _on_confirmation(self, sender: str, msg: wire.UpdateConfirmation) -> Transition:
        rec = self._pending_of(sender, msg.icd_in)
        if rec is None:
            return unexpected(self.state_name, msg)
        if rec.pending.next_provision is not None:
            self._apply_provision(rec, rec.pending.next_provision)
        rec.pending = None
        return Transition(out=[(WBRAC, msg)], note="update-committed")

    def _on_rejection(self, sender: str, msg: wire.UpdateRejection) -> Transition:
        rec = self._pending_of(sender, msg.icd_in)
        if rec is None:
            return unexpected(self.state_name, msg)
        rec.pending = None
        return Transition(out=[(WBRAC, msg)], note="update-discarded")

    def _on_challenge_answer(self, sender: str, msg: wire.AuthChallengeAnswer) -> Transition:
        rec = self._by_agent.get(sender)
        if rec is None or not rec.challenge_outstanding:
            return unexpected(self.state_name, msg)
        rec.challenge_outstanding = False
        if msg.auth_sign_map == rec.prov.challenge_sign:
            return Transition(out=[(sender, wire.AuthAccept())], note="challenge-passed")
        return Transition(
            out=[(sender, wire.AccessDenied(REASON_VERIFY_FAILED))],
            note="challenge-failed -> deny",
        )

    _FROM_WBRAC = {
        wire.AccessParameterMessage: _on_access_parameter,
        wire.ParameterUpdateOrder: _on_parameter_update,
        wire.UpdateMessage: _on_update_message,
        wire.MapChallengeResponse: _on_challenge_response,
        wire.MapProvision: _on_provision,
    }
    _FROM_DEVICE = {
        wire.SecureActivation: _on_activation,
        wire.AuthRequest: _on_auth_request,
        wire.MobileAccessChallengeOrder: _on_challenge_order,
        wire.UpdateConfirmation: _on_confirmation,
        wire.UpdateRejection: _on_rejection,
        wire.AuthChallengeAnswer: _on_challenge_answer,
    }
    _BY_SENDER = {WBRAC: _FROM_WBRAC}

    # -- internals --

    def _apply_provision(self, rec: MapRecord, prov: wire.MapProvision) -> None:
        rec.prov = prov
        rec.challenge_outstanding = False

    def _pending_of(self, sender: str, icd_in: int) -> MapRecord | None:
        """The sender's record if icd_in is its own and an update is pending
        for it, else None."""
        rec = self._by_agent.get(sender)
        if rec is None or rec.icd_in != icd_in or rec.pending is None:
            return None
        return rec
