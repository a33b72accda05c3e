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
from . import wire
from .signer import SignedStatement, Signer


class MembershipError(ValueError):
    """Raised for malformed membership or resync message bodies."""


@dataclass(frozen=True)
class ExclusionProposal(wire.Body, error=MembershipError):
    """A cell's claim that ``suspect`` stopped meeting its deadlines.

    Carried in the data field of a ``CELL_EXCLUDE`` envelope; the outer
    envelope signature identifies the proposer.
    """

    suspect: Address = wire.address()
    cycle: int = wire.integer()
    reason: str = wire.text(default="")


@dataclass(frozen=True)
class ExclusionVote(SignedStatement, error=MembershipError):
    """One cell's signed verdict on an exclusion proposal.

    ``agree`` is True when the voter's own liveness probe of the suspect
    timed out (or the voter had already excluded the suspect itself).
    """

    KIND = "exclusion_vote"
    SIGNER = "voter"
    DATA_KEY = "vote"  # alone in a ``CELL_EXCLUDE_VOTE`` envelope

    voter: Address = wire.address()
    suspect: Address = wire.address()
    cycle: int = wire.integer()
    agree: bool = wire.flag()

    @classmethod
    def create(
        cls, signer: Signer, suspect: Address, cycle: int, agree: bool
    ) -> "ExclusionVote":
        """Build and sign a vote on behalf of ``signer``."""
        return cls._signed(signer, suspect=suspect, cycle=cycle, agree=agree)


@dataclass(frozen=True)
class RejoinRequest(wire.Body, error=MembershipError):
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

    cell: Address = wire.address()
    cycle: int = wire.integer()
    basis_cycle: int = wire.integer()
    last_sequence: int = wire.integer()
    fingerprint_hex: str = wire.text("fingerprint")


@dataclass(frozen=True)
class RejoinAck(SignedStatement, error=MembershipError):
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

    KIND = "rejoin_ack"
    SIGNER = "voter"
    DATA_KEY = "ack"  # alone in a ``CELL_REJOIN_ACK`` envelope

    voter: Address = wire.address()
    rejoiner: Address = wire.address()
    cycle: int = wire.integer()
    fingerprint_hex: str = wire.text("fingerprint")
    agree: bool = wire.flag()
    #: The voter's ledger length when it checked the request (-1 for acks
    #: from peers that predate the in-flight-aware handshake).
    admitted_head: int = wire.integer(default=-1)

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
        return cls._signed(
            signer, rejoiner=rejoiner, cycle=cycle, fingerprint_hex=fingerprint_hex,
            agree=agree, admitted_head=admitted_head,
        )


@dataclass(frozen=True)
class MembershipUpdate(wire.Body, error=MembershipError):
    """A quorum-backed membership change, broadcast consortium-wide.

    ``action`` is ``"exclude"`` (evidence: agreeing :class:`ExclusionVote`
    objects) or ``"readmit"`` (evidence: agreeing :class:`RejoinAck`
    objects).  Receivers re-verify every signature and count distinct
    consortium voters before applying the change, so the update is exactly
    as trustworthy as the evidence it carries.
    """

    action: str = wire.text()         # "exclude" | "readmit"
    subject: Address = wire.address()
    cycle: int = wire.integer()
    votes: tuple[ExclusionVote, ...] = wire.list_of(wire.nested(ExclusionVote))(default=())
    acks: tuple[RejoinAck, ...] = wire.list_of(wire.nested(RejoinAck))(default=())

    def __post_init__(self) -> None:
        if self.action not in ("exclude", "readmit"):
            raise MembershipError(f"unknown membership action {self.action!r}")
        if self.action == "exclude" and not self.votes:
            raise MembershipError("an exclusion update must carry votes")
        if self.action == "readmit" and not self.acks:
            raise MembershipError("a readmission update must carry acks")

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
class SnapshotBasis(wire.Body, error=MembershipError):
    """Which retained snapshot a resync builds on.

    Its report cycle, the last ledger sequence it covers and its combined
    fingerprint: two cells whose snapshots agree on all three hold the same
    contract state at the same ledger boundary.
    """

    cycle: int = wire.natural()
    last_sequence: int = wire.integer()
    fingerprint: bytes = wire.digest()


@dataclass(frozen=True)
class SyncRequest(wire.Body, error=MembershipError):
    """A recovering cell's request for a snapshot plus the ledger tail.

    ``since_sequence`` is the first ledger sequence number the requester is
    missing; the donor answers with its latest snapshot and every entry
    from that sequence onward.  With ``delta_only`` the requester already
    holds a restored basis (an earlier sync this recovery): the donor
    ships no snapshot and replays just the entries from ``since_sequence``,
    which is what keeps retry and backfill traffic bounded under load.

    A first sync names the requester's latest retained snapshot
    (``basis``) and the ids of its own ledger entries past that snapshot's
    boundary (``held``, in ledger order).  A donor that retains the same
    snapshot ships none: it builds on the requester's and sends each held
    entry as its position in ``held``.
    """

    since_sequence: int = wire.natural()
    delta_only: bool = wire.flag(default=False)
    basis: Optional[SnapshotBasis] = wire.nested(SnapshotBasis)(omit_none=True, default=None)
    held: tuple[str, ...] = wire.list_of(wire.text)(default=())


@dataclass(frozen=True)
class EntrySummary(wire.Body, error=MembershipError):
    """What a cell recorded about one ledger entry, without the envelope.

    The compact form audits, resync bundles and logs carry
    (``LedgerEntry.summary``): where the entry sits, what execution
    decided, and the per-entry execution fingerprint.
    """

    sequence: int = wire.natural()
    tx_id: str = wire.text()
    cycle: int = wire.integer()
    admitted_at: float = wire.number()
    status: str = wire.text()          # admitted | executed | rejected
    contract: Optional[str] = wire.optional(wire.text)()
    error: Optional[str] = wire.optional(wire.text)()
    contingency: bool = wire.flag()
    fingerprint: Optional[bytes] = wire.optional(wire.digest)()


@dataclass(frozen=True)
class LedgerRecord(wire.Body, error=MembershipError):
    """One ledger entry as a cell serves it: to auditors, and in a resync bundle.

    The cell's summary and the signed client envelope in wire form (parsed
    and verified by whoever replays it).
    """

    summary: EntrySummary = wire.nested(EntrySummary)()
    envelope: dict[str, Any] = wire.obj()


@dataclass(frozen=True)
class SyncEntry(LedgerRecord):
    """One ledger entry a shipped snapshot covers: the record plus the recorded result.

    The recovering cell backfills it with this result instead of
    re-executing it, and skips it unread where it holds it already.
    """

    result: Any = wire.anything(default=None)


@dataclass(frozen=True)
class ReplayEntry(wire.Body, error=MembershipError):
    """One ledger entry a recovering cell re-executes: what its checks read.

    Where the entry sits (``sequence``, ``cycle``), what the donor's
    execution decided (``status`` and the per-entry ``fingerprint``) and
    whether it came through the on-chain contingency channel (``True`` or
    absent).  The tx id, result, contract and error are the replay's own.
    The client envelope travels in link form (``envelope``), its recipient
    the consortium cell at index ``to`` and its opcode ``TX_SUBMIT`` unless
    its payload names them — or, when the recovering cell holds it, as its
    position in the request's ``held`` list.
    """

    sequence: int = wire.natural()
    cycle: int = wire.integer()
    status: str = wire.text()
    fingerprint: Optional[bytes] = wire.optional(wire.digest)(omit_none=True, default=None)
    contingency: Optional[bool] = wire.optional(wire.flag)(omit_none=True, default=None)
    envelope: Optional[dict[str, Any]] = wire.optional(wire.obj)(omit_none=True, default=None)
    to: Optional[int] = wire.optional(wire.natural)(omit_none=True, default=None)
    held: Optional[int] = wire.optional(wire.natural)(omit_none=True, default=None)

    def __post_init__(self) -> None:
        if (self.envelope is None) == (self.held is None):
            raise MembershipError("a replayed entry carries its envelope or a held position")


@dataclass(frozen=True)
class SyncState(wire.Body, error=MembershipError):
    """A donor cell's resync bundle: snapshot + post-snapshot ledger tail.

    ``snapshot`` is the donor's latest data snapshot in wire form (None if
    the donor has not taken one yet, or builds on the requester's own:
    then ``basis`` states that snapshot as the donor retains it, and
    ``newer`` the donor's later retained snapshots, oldest first, which
    the requester rebuilds as its replay crosses their boundaries).
    ``entries`` are the full records of the entries the requester
    backfills, at or below a shipped snapshot's boundary; ``replay`` every
    entry past that boundary (or past the basis's, or from the requested
    sequence), in the donor's ledger order, as the requester re-executes
    them.  ``excluded`` is the donor's current membership view (hex
    addresses of excluded cells) so the requester can refresh its own
    stale view along with its state.  ``head`` is the donor's ledger
    length at serve time: the requester tracks it across delta rounds so
    each follow-up sync asks for exactly the entries past what the donor
    already shipped.
    """

    donor: Address = wire.address()
    snapshot: Optional[dict[str, Any]] = wire.optional(wire.obj)()
    entries: tuple[SyncEntry, ...] = wire.list_of(wire.nested(SyncEntry))()
    head: int = wire.integer()
    excluded: tuple[str, ...] = wire.list_of(wire.text)(default=())
    basis: Optional[SnapshotBasis] = wire.nested(SnapshotBasis)(omit_none=True, default=None)
    replay: tuple[ReplayEntry, ...] = wire.list_of(wire.nested(ReplayEntry))(default=())
    newer: tuple[SnapshotBasis, ...] = wire.list_of(wire.nested(SnapshotBasis))(default=())
