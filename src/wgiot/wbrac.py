"""The wireless base register authentication center (WBRAC).

Holds the subscriber registry, rotates and broadcasts the MPC, and runs the
server side of the update-value and unique-challenge computations.  Only the
WBRAC holds device secrets; access points receive precomputed expectations
through provisioning pushes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import crypto, wire
from .agent import ProtocolError, Transition, unexpected


class DuplicateIcd(ProtocolError):
    pass


class TooEarly(ProtocolError):
    pass


class UpdateInProgress(ProtocolError):
    pass


class NoPendingUpdate(ProtocolError):
    pass


class IoFailure(Exception):
    pass


class ParseError(Exception):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


REGISTRY_HEADER = "wgiot-registry v1"
DEFAULT_MPC_PERIOD_MS = 60_000
DEFAULT_WBRAC_ID = 0x5747_0000_0000_0001
MPC_HISTORY_LIMIT = 2  # current plus immediately-previous


@dataclass
class SubscriberRecord:
    icd_in: int
    wgie: crypto.WgieRecord
    sc_auth_k: crypto.ScAuthKey
    sd: crypto.SdPair
    rmc: crypto.Rmc
    pending_sd_new: crypto.SdPair | None = None


@dataclass
class MpcSchedule:
    period_ms: int = DEFAULT_MPC_PERIOD_MS
    current: crypto.Mpc = field(default_factory=lambda: crypto.Mpc(bytes(16)))
    history: list[crypto.Mpc] = field(default_factory=list)
    last_rotation: int | None = None


class WbracService:
    def __init__(
        self,
        agent_id: str = "wbrac",
        wbrac_id: int = DEFAULT_WBRAC_ID,
        backend: crypto.PrfBackend = crypto.DEFAULT_BACKEND,
        schedule: MpcSchedule | None = None,
        rng=None,
    ):
        self.agent_id = agent_id
        self.wbrac_id = wbrac_id
        self.backend = backend
        self.rng = rng
        self.registry: dict[int, SubscriberRecord] = {}
        self.schedule = schedule or MpcSchedule()

    state_name = "-"

    # -- registry management --

    def provision(
        self,
        icd_in: int,
        wgie: crypto.WgieRecord,
        sc_auth_k: crypto.ScAuthKey,
        sd: crypto.SdPair | None = None,
    ) -> SubscriberRecord:
        if icd_in in self.registry:
            raise DuplicateIcd(icd_in)
        if sd is None:
            sd = crypto.SdPair.from_packed(self.rng.draw_bytes(16))
        rec = SubscriberRecord(icd_in, wgie, sc_auth_k, sd, crypto.Rmc(0))
        self.registry[icd_in] = rec
        return rec

    def expected_aac(self, rec: SubscriberRecord, sd: crypto.SdPair | None = None) -> crypto.Aac:
        return crypto.authenticate_signature(
            sd or rec.sd, rec.wgie.esn, rec.icd_in, rec.sc_auth_k, self.backend
        )

    def map_provision(
        self, rec: SubscriberRecord, sd: crypto.SdPair | None = None
    ) -> wire.MapProvision:
        """Verification material for an access point: the expected AAC plus a
        precomputed unique-challenge pair for the given (default: current)
        service data."""
        sd = sd or rec.sd
        wmap = crypto.gen_wmap(self.rng)
        composite = crypto.compose_unique_challenge(wmap, self.wbrac_id)
        sign = crypto.authorization_signature(
            sd, composite, rec.wgie.esn, rec.icd_in, self.backend
        )
        return wire.MapProvision(
            rec.icd_in, self.expected_aac(rec, sd).bits, wmap.bits, sign.bits
        )

    # -- MPC rotation --

    def rotate_mpc(self, now: int) -> wire.AccessParameterMessage:
        sched = self.schedule
        if sched.last_rotation is not None and now < sched.last_rotation + sched.period_ms:
            raise TooEarly(f"rotation at {now}, last at {sched.last_rotation}")
        sched.history.insert(0, sched.current)
        del sched.history[MPC_HISTORY_LIMIT - 1 :]
        sched.current = crypto.Mpc(self.rng.draw_bytes(16))
        sched.last_rotation = now
        return wire.AccessParameterMessage(sched.current.bits)

    # -- update-value flow --

    def begin_update(self, icd_in: int) -> wire.UpdateMessage:
        rec = self.registry[icd_in]
        if rec.pending_sd_new is not None:
            raise UpdateInProgress(icd_in)
        rand = crypto.gen_update_rand(self.rng)
        aac_from_rand = crypto.authenticate_signature(
            crypto.SdPair.from_packed(rand), rec.wgie.esn, rec.icd_in, rec.sc_auth_k, self.backend
        )
        rec.pending_sd_new = crypto.sd_generation(
            aac_from_rand, rec.wgie.esn, rec.sc_auth_k, self.backend
        )
        return wire.UpdateMessage(icd_in, rand)

    def answer_challenge(self, icd_in: int, to_map: crypto.ToMap) -> crypto.AuthSignMap:
        rec = self.registry[icd_in]
        if rec.pending_sd_new is None:
            raise NoPendingUpdate(icd_in)
        return crypto.authorization_signature(
            rec.pending_sd_new, to_map.bits, rec.wgie.esn, rec.icd_in, self.backend
        )

    def commit(self, icd_in: int, confirmed: bool) -> None:
        rec = self.registry[icd_in]
        if rec.pending_sd_new is None:
            raise NoPendingUpdate(icd_in)
        if confirmed:
            rec.sd = rec.pending_sd_new
        rec.pending_sd_new = None

    # -- frame handling (requests relayed by the access point) --

    def handle(self, sender: str, msg: wire.WireMessage, now: int) -> Transition:
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            return unexpected(self.state_name, msg)
        return handler(self, sender, msg)

    def _on_update_request(self, sender: str, msg: wire.UpdateRequest) -> Transition:
        rec = self.registry.get(msg.icd_in)
        if rec is None:
            return Transition(note=f"update request for unknown icd {msg.icd_in}")
        try:
            update = self.begin_update(msg.icd_in)
        except UpdateInProgress:
            return Transition(note="update already in progress")
        return Transition(out=[(sender, update)])

    def _on_challenge_forward(self, sender: str, msg: wire.MapChallengeForward) -> Transition:
        rec = self.registry.get(msg.icd_in)
        if rec is None:
            return Transition(note=f"challenge for unknown icd {msg.icd_in}")
        try:
            sign = self.answer_challenge(msg.icd_in, crypto.ToMap(msg.to_map))
        except NoPendingUpdate:
            return Transition(note="no pending update")
        # push the post-commit expectations ahead of the response so the
        # access point can verify the device's re-authentication
        prov = self.map_provision(rec, sd=rec.pending_sd_new)
        return Transition(out=[(sender, prov), (sender, wire.MapChallengeResponse(sign.bits))])

    def _on_update_outcome(
        self, sender: str, msg: wire.UpdateConfirmation | wire.UpdateRejection
    ) -> Transition:
        rec = self._unique_pending()
        if rec is None:
            return unexpected(self.state_name, msg)
        confirmed = type(msg) is wire.UpdateConfirmation
        self.commit(rec.icd_in, confirmed)
        return Transition(note="committed" if confirmed else "rejected")

    _HANDLERS = {
        wire.UpdateRequest: _on_update_request,
        wire.MapChallengeForward: _on_challenge_forward,
        wire.UpdateConfirmation: _on_update_outcome,
        wire.UpdateRejection: _on_update_outcome,
    }

    def _unique_pending(self) -> SubscriberRecord | None:
        """The forwarded outcome frames carry no device id; attribute them to
        the record with a pending update (lowest icd_in on the rare tie)."""
        return min(
            (rec for rec in self.registry.values() if rec.pending_sd_new is not None),
            key=lambda rec: rec.icd_in,
            default=None,
        )

    # -- persistence --

    def save(self, path) -> None:
        lines = [REGISTRY_HEADER]
        sched = self.schedule
        last = "-" if sched.last_rotation is None else str(sched.last_rotation)
        mpc_line = f"mpc {sched.period_ms} {last} {sched.current.bits.hex()}"
        for prev in sched.history:
            mpc_line += f" {prev.bits.hex()}"
        lines.append(mpc_line)
        for icd_in, rec in sorted(self.registry.items()):
            line = (
                f"{icd_in} {rec.wgie.esn} {rec.wgie.key.hex()} "
                f"{rec.sc_auth_k.bits.hex()} {rec.sd.packed.hex()} {rec.rmc.counter}"
            )
            if rec.pending_sd_new is not None:
                line += f" {rec.pending_sd_new.packed.hex()}"
            lines.append(line)
        try:
            Path(path).write_text("\n".join(lines) + "\n")
        except OSError as exc:
            raise IoFailure(str(exc)) from exc

    def load(self, path) -> None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        lines = text.splitlines()
        if not lines or lines[0].strip() != REGISTRY_HEADER:
            raise ParseError(1, f"expected header {REGISTRY_HEADER!r}")
        self.registry = {}
        self.schedule = MpcSchedule()
        for line_no, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "mpc":
                    self.schedule.period_ms = int(parts[1])
                    self.schedule.last_rotation = None if parts[2] == "-" else int(parts[2])
                    self.schedule.current = crypto.Mpc(bytes.fromhex(parts[3]))
                    self.schedule.history = [
                        crypto.Mpc(bytes.fromhex(h)) for h in parts[4:]
                    ]
                    continue
                if len(parts) not in (6, 7):
                    raise ValueError(f"expected 6 or 7 fields, got {len(parts)}")
                icd_in, esn = int(parts[0]), int(parts[1])
                rec = SubscriberRecord(
                    icd_in=icd_in,
                    wgie=crypto.WgieRecord(bytes.fromhex(parts[2]), esn, icd_in),
                    sc_auth_k=crypto.ScAuthKey(bytes.fromhex(parts[3])),
                    sd=crypto.SdPair.from_packed(bytes.fromhex(parts[4])),
                    rmc=crypto.Rmc(int(parts[5])),
                )
                if len(parts) == 7:
                    rec.pending_sd_new = crypto.SdPair.from_packed(bytes.fromhex(parts[6]))
            except (ValueError, crypto.CryptoError) as exc:
                raise ParseError(line_no, str(exc)) from exc
            if icd_in in self.registry:
                raise ParseError(line_no, f"duplicate icd_in {icd_in}")
            self.registry[icd_in] = rec
