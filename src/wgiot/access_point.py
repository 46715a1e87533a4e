"""State machine for the mobile access point (MAP).

The access point verifies presented GUIDs against expectations provisioned
by the WBRAC (it never holds device secrets) and relays challenge traffic
between device and WBRAC.  A failed comparison is remedied by a fixed rule
(`remedy`): an MPC or RMC mismatch starts the update-value flow, an
AAC-only mismatch gets a unique challenge, and all three wrong is denied.
The access point obeys the WBRAC's frames only when they come from the
WBRAC, and answers an AuthRequest only for the sending device's own icd_in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import crypto, wire
from .agent import ProtocolError, Transition, unexpected

REASON_VERIFY_FAILED = 0x01
REASON_UNKNOWN_ICD = 0x02


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


@dataclass
class PendingUpdate:
    expected_sign: crypto.AuthSignMap | None = None
    next_provision: wire.MapProvision | None = None


@dataclass
class MapRecord:
    """Per-device expectations; the provision-derived fields are filled in
    by `MapAgent._apply_provision` only."""

    icd_in: int
    icd_agent_id: str
    expected_rmc: crypto.Rmc
    expected_aac: crypto.Aac = field(init=False)
    challenge_wmap: crypto.Wmap = field(init=False)
    challenge_sign: crypto.AuthSignMap = field(init=False)
    challenge_outstanding: bool = False
    pending: PendingUpdate | None = None


class MapAgent:
    def __init__(self, agent_id: str, wbrac_id: str, mpc: crypto.Mpc):
        self.agent_id = agent_id
        self.wbrac_id = wbrac_id
        self.mpc = mpc  # network-wide; every device's GUID is checked against it
        self.records: dict[int, MapRecord] = {}
        self._by_agent: dict[str, MapRecord] = {}

    state_name = "-"

    def provision(self, icd_agent_id: str, rmc: crypto.Rmc, prov: wire.MapProvision) -> None:
        """Register a device from the WBRAC's provisioning frame."""
        rec = MapRecord(prov.icd_in, icd_agent_id, rmc)
        self._apply_provision(rec, prov)
        self.records[rec.icd_in] = rec
        self._by_agent[icd_agent_id] = rec

    # -- verification --

    def verify(self, icd_in: int, req: wire.AuthRequest) -> frozenset:
        """Return the set of mismatched GUID fields; empty means accept.
        The fields are compared as packed bytes."""
        rec = self.records.get(icd_in)
        if rec is None:
            raise UnknownIcd(icd_in)
        aac, mpc, rmc = crypto.split_guid(req.guid)
        mismatch = set()
        if aac != rec.expected_aac.bits:
            mismatch.add("AAC")
        if mpc != self.mpc.bits:
            mismatch.add("MPC")
        if rmc != rec.expected_rmc.packed:
            mismatch.add("RMC")
        return frozenset(mismatch)

    # -- transitions --

    def handle(self, sender: str, msg: wire.WireMessage, now: int) -> Transition:
        table = self._FROM_WBRAC if sender == self.wbrac_id else self._FROM_DEVICE
        handler = table.get(type(msg))
        if handler is None:
            return unexpected(self.state_name, msg)
        return handler(self, sender, msg)

    # frames from the WBRAC

    def _on_access_parameter(self, sender: str, msg: wire.AccessParameterMessage) -> Transition:
        self.mpc = crypto.Mpc(msg.mpc)
        return Transition(note="mpc-updated")

    def _on_parameter_update(self, sender: str, msg: wire.ParameterUpdateOrder) -> Transition:
        for rec in self.records.values():
            rec.expected_rmc = rec.expected_rmc.incremented()
        return Transition(note="rmc-incremented")

    def _on_update_message(self, sender: str, msg: wire.UpdateMessage) -> Transition:
        rec = self.records.get(msg.icd_in)
        if rec is None:
            return Transition(note=f"update for unknown icd {msg.icd_in}")
        rec.pending = PendingUpdate()
        return Transition(out=[(rec.icd_agent_id, wire.UpdateOrder(msg.rand))])

    def _on_challenge_response(self, sender: str, msg: wire.MapChallengeResponse) -> Transition:
        rec = self._unique_pending()
        if rec is None:
            return unexpected(self.state_name, msg)
        rec.pending.expected_sign = crypto.AuthSignMap(msg.auth_sign_map)
        return Transition(
            out=[(rec.icd_agent_id, wire.MapChallengeResponseOrder(msg.auth_sign_map))]
        )

    def _on_provision(self, sender: str, msg: wire.MapProvision) -> Transition:
        rec = self.records.get(msg.icd_in)
        if rec is None:
            return Transition(note=f"provision for unknown icd {msg.icd_in}")
        if rec.pending is not None:
            rec.pending.next_provision = msg
            return Transition(note="provision-stashed")
        self._apply_provision(rec, msg)
        return Transition(note="provision-applied")

    # frames from devices

    def _on_activation(self, sender: str, msg: wire.SecureActivation) -> Transition:
        return Transition(note="activation")

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
                out=[(sender, wire.AuthenticationChallenge(rec.challenge_wmap.bits))],
                note=note + " -> challenge",
            )
        if action == UPDATE:
            if rec.pending is not None:
                return Transition(note=note + " -> update already pending")
            # refresh the device's stale MPC alongside the update request
            return Transition(
                out=[
                    (self.wbrac_id, wire.UpdateRequest(req.icd_in)),
                    (sender, wire.AccessParameterMessage(self.mpc.bits)),
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
                (self.wbrac_id, wire.MapChallengeForward(rec.icd_in, msg.to_map)),
            ]
        )

    def _on_confirmation(self, sender: str, msg: wire.UpdateConfirmation) -> Transition:
        rec = self._by_agent.get(sender)
        if rec is None or rec.pending is None:
            return unexpected(self.state_name, msg)
        if rec.pending.next_provision is not None:
            self._apply_provision(rec, rec.pending.next_provision)
        rec.pending = None
        return Transition(
            out=[(self.wbrac_id, wire.UpdateConfirmation())], note="update-committed"
        )

    def _on_rejection(self, sender: str, msg: wire.UpdateRejection) -> Transition:
        rec = self._by_agent.get(sender)
        if rec is None or rec.pending is None:
            return unexpected(self.state_name, msg)
        rec.pending = None
        return Transition(out=[(self.wbrac_id, wire.UpdateRejection())], note="update-discarded")

    def _on_challenge_answer(self, sender: str, msg: wire.AuthChallengeAnswer) -> Transition:
        rec = self._by_agent.get(sender)
        if rec is None or not rec.challenge_outstanding:
            return unexpected(self.state_name, msg)
        rec.challenge_outstanding = False
        if msg.auth_sign_map == rec.challenge_sign.bits:
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

    # -- internals --

    def _apply_provision(self, rec: MapRecord, prov: wire.MapProvision) -> None:
        rec.expected_aac = crypto.Aac(prov.expected_aac)
        rec.challenge_wmap = crypto.Wmap(prov.wmap)
        rec.challenge_sign = crypto.AuthSignMap(prov.challenge_sign)
        rec.challenge_outstanding = False

    def _unique_pending(self) -> MapRecord | None:
        """The response frames carry no device id; attribute them to the
        record with a pending update still waiting for its signature
        (lowest icd_in on the rare tie)."""
        return min(
            (
                rec
                for rec in self.records.values()
                if rec.pending is not None and rec.pending.expected_sign is None
            ),
            key=lambda rec: rec.icd_in,
            default=None,
        )
