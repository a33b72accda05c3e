"""Membership and resync message bodies (Section V fault handling).

The overlay consensus of Section III-A4 only *defines* when a cell stops
being valid; the dynamic-membership protocol built on top of it needs
concrete wire messages: a cell that observed enough missed deadlines
broadcasts an *exclusion proposal*, the other live cells probe the suspect
and answer with *signed votes*, and a quorum of agreeing votes is committed
consortium-wide as a *membership update*.  A recovered (or brand-new
standby) cell walks the reverse path: it downloads a snapshot and the
post-snapshot ledger tail (*sync request/state*), replays it, and asks to
be re-admitted with a *rejoin request* whose state fingerprint the live
cells check before signing a *rejoin ack*.

Votes and acks are individually signed statements — like the transaction
confirmations of Section III-D3 — so a membership update can carry them as
third-party-verifiable evidence: no single cell can forge a quorum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..crypto.keys import Address
from .signer import SignedStatement, Signer, verify_signature


class MembershipError(ValueError):
    """Raised for malformed membership or resync message bodies."""


def _address(raw: Any, what: str) -> Address:
    """Parse a hex address field, mapping failures to MembershipError."""
    try:
        return Address.from_hex(raw)
    except (TypeError, ValueError, AttributeError) as exc:
        raise MembershipError(f"malformed {what} address: {raw!r}") from exc


@dataclass(frozen=True)
class ExclusionProposal:
    """A cell's claim that ``suspect`` stopped meeting its deadlines.

    Carried in the data field of a ``CELL_EXCLUDE`` envelope; the outer
    envelope signature identifies the proposer.
    """

    suspect: Address
    cycle: int
    reason: str

    def to_data(self) -> dict[str, Any]:
        """The data field D of a ``CELL_EXCLUDE`` envelope."""
        return {"suspect": self.suspect.hex(), "cycle": self.cycle, "reason": self.reason}

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "ExclusionProposal":
        """Rebuild a proposal from an envelope's data field."""
        try:
            return cls(
                suspect=_address(raw["suspect"], "suspect"),
                cycle=int(raw["cycle"]),
                reason=str(raw.get("reason", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MembershipError(f"malformed exclusion proposal: {exc}") from exc


@dataclass(frozen=True)
class ExclusionVote(SignedStatement):
    """One cell's signed verdict on an exclusion proposal.

    ``agree`` is True when the voter's own liveness probe of the suspect
    timed out (or the voter had already excluded the suspect itself).
    """

    voter: Address
    suspect: Address
    cycle: int
    agree: bool

    KIND = "exclusion_vote"

    @classmethod
    def create(
        cls, signer: Signer, suspect: Address, cycle: int, agree: bool
    ) -> "ExclusionVote":
        """Build and sign a vote on behalf of ``signer``."""
        return cls(
            voter=signer.address,
            suspect=suspect,
            cycle=cycle,
            agree=agree,
            signature=b"",
            scheme=signer.scheme,
        )._signed_by(signer)

    def _signed_fields(self) -> dict[str, Any]:
        return {
            "voter": self.voter.hex(),
            "suspect": self.suspect.hex(),
            "cycle": self.cycle,
            "agree": self.agree,
        }

    def verify(self) -> bool:
        """Check the voter's signature over the vote body."""
        return verify_signature(self.scheme, self.voter, self.body(), self.signature)

    @classmethod
    def from_wire(cls, raw: dict[str, Any]) -> "ExclusionVote":
        """Parse a vote from its wire form."""
        try:
            return cls(
                voter=_address(raw["voter"], "voter"),
                suspect=_address(raw["suspect"], "suspect"),
                cycle=int(raw["cycle"]),
                agree=bool(raw["agree"]),
                signature=cls.signature_from_wire(raw),
                scheme=raw.get("scheme", "ecdsa"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MembershipError(f"malformed exclusion vote: {exc}") from exc

    def to_data(self) -> dict[str, Any]:
        """The data field D of a ``CELL_EXCLUDE_VOTE`` envelope."""
        return {"vote": self.to_wire()}

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "ExclusionVote":
        """Rebuild a vote from an envelope's data field."""
        vote = raw.get("vote")
        if not isinstance(vote, dict):
            raise MembershipError("exclusion-vote envelope carries no vote object")
        return cls.from_wire(vote)


@dataclass(frozen=True)
class RejoinRequest:
    """A recovered cell's request to re-enter the confirmation quorum.

    ``fingerprint_hex`` is the combined fingerprint of the rejoiner's
    contract data after resync (the same combination rule the snapshot
    engine anchors on Ethereum); ``basis_cycle``/``last_sequence`` say
    which donor snapshot and ledger position the state was rebuilt from.
    ``cycle`` is the *handshake cycle* — the report cycle the rejoiner is
    asking to be readmitted in.  Acks sign over it, so a quorum of acks
    gathered for one recovery cannot be replayed to readmit the cell after
    a later exclusion (receivers reject updates older than the exclusion).
    """

    cell: Address
    cycle: int
    basis_cycle: int
    last_sequence: int
    fingerprint_hex: str

    def to_data(self) -> dict[str, Any]:
        """The data field D of a ``CELL_REJOIN`` envelope."""
        return {
            "cell": self.cell.hex(),
            "cycle": self.cycle,
            "basis_cycle": self.basis_cycle,
            "last_sequence": self.last_sequence,
            "fingerprint": self.fingerprint_hex,
        }

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "RejoinRequest":
        """Rebuild a rejoin request from an envelope's data field."""
        try:
            return cls(
                cell=_address(raw["cell"], "cell"),
                cycle=int(raw["cycle"]),
                basis_cycle=int(raw["basis_cycle"]),
                last_sequence=int(raw["last_sequence"]),
                fingerprint_hex=str(raw["fingerprint"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MembershipError(f"malformed rejoin request: {exc}") from exc


@dataclass(frozen=True)
class RejoinAck(SignedStatement):
    """A live cell's signed verdict on a rejoin request.

    ``agree`` is True when the rejoiner's claimed state fingerprint matched
    the voter's own contract data at check time; the fingerprint the voter
    actually computed rides along so disagreements are diagnosable.
    ``admitted_head`` is the voter's ledger length at check time — its
    admitted-but-not-necessarily-executed transaction head.  State
    fingerprints cannot see admitted-but-unexecuted transactions, so this
    is what tells the rejoiner how far each peer's *ledger* had moved at
    the moment it voted: any gap past the rejoiner's own head must be
    backfilled after readmission before the cell anchors fingerprints.
    """

    voter: Address
    rejoiner: Address
    cycle: int
    fingerprint_hex: str
    agree: bool
    #: The voter's ledger length when it checked the request (-1 for acks
    #: from peers that predate the in-flight-aware handshake).
    admitted_head: int = -1

    KIND = "rejoin_ack"

    @classmethod
    def create(
        cls,
        signer: Signer,
        rejoiner: Address,
        cycle: int,
        fingerprint_hex: str,
        agree: bool,
        admitted_head: int = -1,
    ) -> "RejoinAck":
        """Build and sign an ack on behalf of ``signer``."""
        return cls(
            voter=signer.address,
            rejoiner=rejoiner,
            cycle=cycle,
            fingerprint_hex=fingerprint_hex,
            agree=agree,
            signature=b"",
            scheme=signer.scheme,
            admitted_head=admitted_head,
        )._signed_by(signer)

    def _signed_fields(self) -> dict[str, Any]:
        return {
            "voter": self.voter.hex(),
            "rejoiner": self.rejoiner.hex(),
            "cycle": self.cycle,
            "fingerprint": self.fingerprint_hex,
            "agree": self.agree,
            "admitted_head": self.admitted_head,
        }

    def verify(self) -> bool:
        """Check the voter's signature over the ack body."""
        return verify_signature(self.scheme, self.voter, self.body(), self.signature)

    @classmethod
    def from_wire(cls, raw: dict[str, Any]) -> "RejoinAck":
        """Parse an ack from its wire form."""
        try:
            return cls(
                voter=_address(raw["voter"], "voter"),
                rejoiner=_address(raw["rejoiner"], "rejoiner"),
                cycle=int(raw["cycle"]),
                fingerprint_hex=str(raw["fingerprint"]),
                agree=bool(raw["agree"]),
                signature=cls.signature_from_wire(raw),
                scheme=raw.get("scheme", "ecdsa"),
                admitted_head=int(raw.get("admitted_head", -1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MembershipError(f"malformed rejoin ack: {exc}") from exc

    def to_data(self) -> dict[str, Any]:
        """The data field D of a ``CELL_REJOIN_ACK`` envelope."""
        return {"ack": self.to_wire()}

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "RejoinAck":
        """Rebuild an ack from an envelope's data field."""
        ack = raw.get("ack")
        if not isinstance(ack, dict):
            raise MembershipError("rejoin-ack envelope carries no ack object")
        return cls.from_wire(ack)


@dataclass(frozen=True)
class MembershipUpdate:
    """A quorum-backed membership change, broadcast consortium-wide.

    ``action`` is ``"exclude"`` (evidence: agreeing :class:`ExclusionVote`
    objects) or ``"readmit"`` (evidence: agreeing :class:`RejoinAck`
    objects).  Receivers re-verify every signature and count distinct
    consortium voters before applying the change, so the update is exactly
    as trustworthy as the evidence it carries.
    """

    action: str                      # "exclude" | "readmit"
    subject: Address
    cycle: int
    votes: tuple[ExclusionVote, ...] = ()
    acks: tuple[RejoinAck, ...] = ()

    def __post_init__(self) -> None:
        if self.action not in ("exclude", "readmit"):
            raise MembershipError(f"unknown membership action {self.action!r}")
        if self.action == "exclude" and not self.votes:
            raise MembershipError("an exclusion update must carry votes")
        if self.action == "readmit" and not self.acks:
            raise MembershipError("a readmission update must carry acks")

    def to_data(self) -> dict[str, Any]:
        """The data field D of a ``MEMBERSHIP_UPDATE`` envelope."""
        return {
            "action": self.action,
            "subject": self.subject.hex(),
            "cycle": self.cycle,
            "votes": [vote.to_wire() for vote in self.votes],
            "acks": [ack.to_wire() for ack in self.acks],
        }

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "MembershipUpdate":
        """Rebuild an update from an envelope's data field."""
        try:
            return cls(
                action=str(raw["action"]),
                subject=_address(raw["subject"], "subject"),
                cycle=int(raw["cycle"]),
                votes=tuple(
                    ExclusionVote.from_wire(item) for item in raw.get("votes", [])
                ),
                acks=tuple(RejoinAck.from_wire(item) for item in raw.get("acks", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MembershipError(f"malformed membership update: {exc}") from exc

    def verified_supporters(self) -> set[Address]:
        """Distinct voters whose *agreeing* evidence carries a valid signature.

        The evidence must name this update's subject **and cycle** — votes
        and acks are signed over both, so evidence gathered for one
        exclusion or recovery episode cannot be replayed under a different
        cycle number.
        """
        supporters: set[Address] = set()
        if self.action == "exclude":
            for vote in self.votes:
                if (
                    vote.agree
                    and vote.suspect == self.subject
                    and vote.cycle == self.cycle
                    and vote.verify()
                ):
                    supporters.add(vote.voter)
        else:
            for ack in self.acks:
                if (
                    ack.agree
                    and ack.rejoiner == self.subject
                    and ack.cycle == self.cycle
                    and ack.verify()
                ):
                    supporters.add(ack.voter)
        return supporters


@dataclass(frozen=True)
class SyncRequest:
    """A recovering cell's request for a snapshot plus the ledger tail.

    ``since_sequence`` is the first ledger sequence number the requester is
    missing; the donor answers with its latest snapshot and every entry
    from that sequence onward.  With ``delta_only`` the requester already
    holds a restored basis (an earlier full sync this recovery): the donor
    skips the snapshot and ships just the entries past ``since_sequence``,
    which is what keeps retry and backfill traffic bounded under load.
    """

    since_sequence: int
    delta_only: bool = False

    def to_data(self) -> dict[str, Any]:
        """The data field D of a ``CELL_SYNC`` envelope."""
        return {"since_sequence": self.since_sequence, "delta_only": self.delta_only}

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "SyncRequest":
        """Rebuild a sync request from an envelope's data field."""
        try:
            since = int(raw["since_sequence"])
            delta_only = bool(raw.get("delta_only", False))
        except (KeyError, TypeError, ValueError) as exc:
            raise MembershipError(f"malformed sync request: {exc}") from exc
        if since < 0:
            raise MembershipError("since_sequence cannot be negative")
        return cls(since_sequence=since, delta_only=delta_only)


@dataclass(frozen=True)
class SyncState:
    """A donor cell's resync bundle: snapshot + post-snapshot ledger tail.

    ``snapshot`` is the donor's latest data snapshot in wire form (None if
    the donor has not taken one yet); ``entries`` are the donor's ledger
    entries from the snapshot boundary (or the requested sequence,
    whichever is earlier) onward, each carrying the summary (with
    per-entry execution fingerprint), the signed client envelope, and the
    recorded result.  ``excluded`` is the donor's current membership view
    (hex addresses of excluded cells) so the requester can refresh its own
    stale view along with its state.  ``head`` is the donor's ledger
    length at serve time: the requester tracks it across delta rounds so
    each follow-up sync asks for exactly the entries past what the donor
    already shipped (-1 from donors predating the field).
    """

    donor: Address
    snapshot: Optional[dict[str, Any]]
    entries: tuple[dict[str, Any], ...]
    excluded: tuple[str, ...] = ()
    head: int = -1

    def to_data(self) -> dict[str, Any]:
        """The data field D of a ``CELL_SYNC_STATE`` envelope."""
        return {
            "donor": self.donor.hex(),
            "snapshot": self.snapshot,
            "entries": list(self.entries),
            "excluded": list(self.excluded),
            "head": self.head,
        }

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "SyncState":
        """Rebuild a sync bundle from an envelope's data field."""
        snapshot = raw.get("snapshot")
        if snapshot is not None and not isinstance(snapshot, dict):
            raise MembershipError("sync snapshot must be an object or null")
        entries = raw.get("entries")
        if not isinstance(entries, list) or not all(
            isinstance(item, dict) for item in entries
        ):
            raise MembershipError("sync entries must be a list of objects")
        excluded = raw.get("excluded", [])
        if not isinstance(excluded, list) or not all(
            isinstance(item, str) for item in excluded
        ):
            raise MembershipError("sync excluded view must be a list of hex addresses")
        try:
            head = int(raw.get("head", -1))
        except (TypeError, ValueError) as exc:
            raise MembershipError(f"malformed sync head: {exc}") from exc
        return cls(
            donor=_address(raw.get("donor"), "donor"),
            snapshot=snapshot,
            entries=tuple(entries),
            excluded=tuple(excluded),
            head=head,
        )
