"""Crash recovery and dynamic consortium membership (Section V).

The paper's security analysis argues that the overlay consensus *survives*
cell crashes, censorship, and tampering; this module closes the loop by
letting the consortium actually *recover*:

* :class:`MembershipManager` — the per-cell voting half.  A cell whose
  miss counter crossed the exclusion threshold broadcasts an exclusion
  proposal; every live peer probes the suspect with a PING and answers
  with a signed vote; a strict majority of agreeing votes is committed
  consortium-wide as a :class:`~repro.messages.membership.MembershipUpdate`
  so every cell's view of the active quorum converges.  The same manager
  answers rejoin requests by checking the rejoiner's claimed state
  fingerprint against its own contract data.

* :class:`RecoveryCoordinator` — the resync half, run by a rejoining (or
  brand-new standby) cell.  It downloads the donor's latest anchored
  snapshot and post-snapshot ledger tail in one ``CELL_SYNC`` exchange,
  restores contract state, backfills the ledger entries the snapshot
  already covers, replays the remainder through its own executor while
  matching the donor's recorded per-entry execution fingerprints, adopts
  the snapshot into its snapshot engine, requests readmission with the
  quorum handshake above, and — because state fingerprints cannot see
  transactions peers *admitted* but had not executed when they voted —
  runs a post-readmit delta backfill that fetches exactly that gap
  before the cell resumes anchoring.  The result is a cell whose ledger,
  contract state, and future snapshot fingerprints are indistinguishable
  from a cell that never crashed, even when the consortium kept serving
  full-rate traffic throughout the recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Sequence, TYPE_CHECKING

from ..contracts.context import BContractError
from ..crypto.fingerprint import snapshot_fingerprint
from ..crypto.keys import Address
from ..messages.envelope import Envelope
from ..messages.membership import (
    EntrySummary,
    ExclusionProposal,
    ExclusionVote,
    MembershipUpdate,
    RejoinAck,
    RejoinRequest,
    SyncRequest,
    SyncState,
)
from ..messages.opcodes import Opcode
from ..messages.requests import Pong
from ..sim.events import Event
from .ledger import LedgerError
from .snapshot import DataSnapshot, SnapshotError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cell import BlockumulusCell


@dataclass
class RecoveryResult:
    """Outcome of one crash→resync→rejoin cycle, for tests and benchmarks."""

    cell: str
    donor: str
    ok: bool
    reason: Optional[str] = None
    snapshot_cycle: Optional[int] = None
    backfilled: int = 0
    replayed: int = 0
    #: Local post-crash entries rolled back because the donor snapshot was
    #: older than this cell's ledger head (they are re-executed from the
    #: donor tail).
    truncated: int = 0
    skipped_contracts: list[str] = field(default_factory=list)
    fingerprint_matched: bool = False
    readmitted: bool = False
    ack_count: int = 0
    #: Full resync+rejoin attempts this recovery took (a rejoin vote can
    #: race live traffic: peers execute transactions between the donor
    #: sync and the fingerprint vote, so the coordinator re-syncs the
    #: delta and retries a bounded number of times).
    attempts: int = 1
    #: Entries admitted *after* the first full sync — by delta retries and
    #: the post-readmit backfill phase.  Under quiesced traffic this is 0;
    #: under load it is exactly the in-flight window the rejoin vote's
    #: state fingerprints could not see.
    live_backfilled: int = 0
    #: Post-readmit backfill rounds run (0 when every agreeing ack's
    #: admitted head was already covered by the synced ledger).
    backfill_rounds: int = 0
    #: Delta-only CELL_SYNC round-trips (retries + backfill rounds); full
    #: snapshot transfers happen exactly once per recovery, so this is the
    #: count that bounds recovery traffic under load.
    delta_syncs: int = 0
    #: Active-view peers that never answered the last rejoin vote (hex
    #: addresses).  Crashed-but-unexcluded peers land here; the
    #: coordinator opens exclusion votes on them so the next attempt's
    #: quorum is measured against peers that can actually answer.
    silent_peers: list[str] = field(default_factory=list)
    #: Replayed entries whose donor-recorded execution fingerprint did not
    #: match the ledger-order replay.  A live donor executes entries as
    #: they clear its execution gate — under concurrent traffic that is not
    #: ledger order — so its per-entry fingerprints capture different
    #: intermediate states.  Non-zero skew is expected under load; actual
    #: divergence is caught by the readmission vote on the full state
    #: fingerprint.
    fingerprint_skews: int = 0
    started_at: float = 0.0
    completed_at: float = 0.0
    messages_used: int = 0
    bytes_used: int = 0

    @property
    def duration(self) -> float:
        """Recovery latency in simulated seconds (sync start to readmission)."""
        return self.completed_at - self.started_at


class _ResyncFailure(Exception):
    """Why one resync attempt stopped, raised where it stopped.

    ``reason`` is what :attr:`RecoveryResult.reason` reports.  ``retryable``
    marks a rejoin vote that merely raced live traffic, which a fresh delta
    sync can win; ``silent`` names the active-view peers that never
    answered that vote.
    """

    def __init__(
        self, reason: str, retryable: bool = False, silent: Sequence[Address] = ()
    ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retryable = retryable
        self.silent = silent


@dataclass
class RejoinOutcome:
    """What one rejoin vote produced, beyond the bare pass/fail.

    ``acks`` carry each voter's ``admitted_head`` — the input to the
    post-readmit backfill phase — and ``silent`` names the active-view
    peers that never answered at all, so the coordinator can open
    exclusion votes on them instead of counting unreachable peers in the
    next attempt's quorum denominator.
    """

    readmitted: bool
    acks: list[RejoinAck] = field(default_factory=list)
    silent: list[Address] = field(default_factory=list)


class _RejoinCollection:
    """Acks gathered for one rejoin attempt.

    Fires ``done`` when the required number of *agreeing* acks arrived —
    or as soon as every expected (active-view) voter has answered at
    all: once everyone reachable has spoken there is nothing left to
    wait for, so a failing vote resolves immediately instead of burning
    the full forwarding deadline.
    """

    def __init__(self, env: Any, required: int, expected: set[str]) -> None:
        self.required = required
        self.expected = expected
        self.acks: dict[str, RejoinAck] = {}
        self.done: Event = env.event()

    def add(self, ack: RejoinAck) -> None:
        """Record one verified ack, firing when quorum or all-answered."""
        self.acks[ack.voter.hex()] = ack
        if self.done.triggered:
            return
        agreeing = sum(1 for item in self.acks.values() if item.agree)
        if agreeing >= self.required:
            self.done.succeed(agreeing)
        elif self.expected and self.expected <= set(self.acks):
            self.done.succeed(agreeing)


class MembershipManager:
    """Quorum voting on exclusions and readmissions, for one cell."""

    def __init__(self, cell: "BlockumulusCell") -> None:
        self.cell = cell
        #: Votes collected for exclusion proposals this cell initiated,
        #: keyed by (suspect hex, cycle).
        self._exclusion_votes: dict[tuple[str, int], dict[str, ExclusionVote]] = {}
        #: Proposals already committed (so quorum is broadcast only once).
        self._committed: set[tuple[str, int]] = set()
        #: The in-flight rejoin attempt, if this cell is recovering.
        self._rejoin_collection: Optional[_RejoinCollection] = None
        #: Rejoiners this cell agreed to readmit but whose readmit commit
        #: has not arrived yet, keyed by hex address →
        #: (address, node, expiry).  The forwarding path treats them as
        #: extra targets so entries admitted inside the ack→commit window
        #: still reach the rejoiner; without this, peers forward only to
        #: active-view members and those entries are silently lost.
        self._provisional_forwards: dict[str, tuple[Address, str, float]] = {}

    # ------------------------------------------------------------------
    # Replies to this cell's requests
    # ------------------------------------------------------------------
    def resolve_reply(
        self, src_node: str, envelope: Envelope, body: Pong | SyncState | RejoinAck
    ) -> None:
        """Route an authenticated PONG / CELL_SYNC_STATE / CELL_REJOIN_ACK body."""
        if isinstance(body, RejoinAck):
            self._on_rejoin_ack(src_node, envelope, body)
        elif not self.cell.endpoint.resolve(envelope, body):
            # Another cell answering in the asked peer's name: a third
            # party's PONG must not vouch for a suspect, nor its state
            # pass for the donor's.
            self.cell._refuse_unauthenticated(src_node, envelope)

    # ------------------------------------------------------------------
    # Exclusion: proposal, probing, votes, commit
    # ------------------------------------------------------------------
    def propose_exclusion(self, suspect: Address, cycle: int, reason: str) -> None:
        """Open a consortium-wide vote on excluding ``suspect``.

        Called by the cell when its own miss counter for ``suspect``
        crossed the threshold (it has already excluded the suspect
        locally); the proposal spreads that observation so every cell's
        membership view converges instead of each one burning its own
        misses against a dead peer.
        """
        cell = self.cell
        key = (suspect.hex(), cycle)
        if key in self._exclusion_votes or key in self._committed:
            return
        own_vote = ExclusionVote.create(cell.signer, suspect, cycle, agree=True)
        self._exclusion_votes[key] = {cell.address.hex(): own_vote}
        proposal = ExclusionProposal(suspect=suspect, cycle=cycle, reason=reason)
        # Broadcast to every peer (not just this cell's active view): a peer
        # this cell holds excluded may be live again and entitled to vote.
        for address, node in cell._peers.items():
            if address == suspect:
                continue
            cell.endpoint.send(node, address, Opcode.CELL_EXCLUDE, proposal.to_data())
        cell.metrics.increment(f"{cell.node_name}/exclusion_proposals")
        self._maybe_commit_exclusion(suspect, cycle)

    def handle_proposal(
        self, src_node: str, envelope: Envelope, proposal: ExclusionProposal
    ) -> Generator[Event, Any, None]:
        """Probe the suspect named in a peer's proposal and vote (a process)."""
        cell = self.cell
        if proposal.suspect == cell.address or not cell.invariants.is_cell(proposal.suspect):
            return
        if not cell.consensus.is_active(proposal.suspect):
            agree = True  # our own observations already excluded the suspect
        else:
            agree = yield from self._probe(proposal.suspect)
        vote = ExclusionVote.create(cell.signer, proposal.suspect, proposal.cycle, agree)
        cell._reply(src_node, envelope, Opcode.CELL_EXCLUDE_VOTE, vote.to_data())
        cell.metrics.increment(f"{cell.node_name}/exclusion_votes_cast")

    def _probe(self, suspect: Address) -> Generator[Event, Any, bool]:
        """PING the suspect; True (= vote to exclude) if it stays silent."""
        cell = self.cell
        node = cell.peer_node(suspect)
        if node is None:
            return True
        _request, pong = cell.endpoint.ask(
            node, suspect, Opcode.PING, {"probe": True}, deadline=cell.invariants.probe_deadline
        )
        if not pong.triggered:  # a PING that never left: vote in this same step
            yield pong
        return pong.value is None

    def handle_vote(self, src_node: str, envelope: Envelope, vote: ExclusionVote) -> None:
        """Count one incoming vote on a proposal this cell initiated."""
        if vote.voter != envelope.sender or not vote.verify():
            self.cell._refuse_unauthenticated(src_node, envelope)
            return
        collected = self._exclusion_votes.get((vote.suspect.hex(), vote.cycle))
        if collected is None:
            return
        collected[vote.voter.hex()] = vote
        self._maybe_commit_exclusion(vote.suspect, vote.cycle)

    def _maybe_commit_exclusion(self, suspect: Address, cycle: int) -> None:
        """Broadcast the quorum-backed exclusion once enough votes agree."""
        cell = self.cell
        key = (suspect.hex(), cycle)
        if key in self._committed:
            return
        collected = self._exclusion_votes.get(key, {})
        agreeing = tuple(vote for vote in collected.values() if vote.agree)
        if len(agreeing) < cell.consensus.exclusion_quorum(suspect):
            return
        self._committed.add(key)
        if cell.consensus.is_active(suspect):
            cell.consensus.exclude(suspect, cycle)
        update = MembershipUpdate(
            action="exclude", subject=suspect, cycle=cycle, votes=agreeing
        )
        # Commit goes to every peer so membership views converge even for
        # peers outside this cell's (possibly stale) active view.
        for address, node in cell._peers.items():
            if address == suspect:
                continue
            cell.endpoint.send(node, address, Opcode.MEMBERSHIP_UPDATE, update.to_data())
        cell.metrics.increment(f"{cell.node_name}/exclusions_committed")

    # ------------------------------------------------------------------
    # Membership updates (commit messages from peers)
    # ------------------------------------------------------------------
    def handle_update(self, src_node: str, envelope: Envelope, update: MembershipUpdate) -> None:
        """Apply a quorum-backed exclude/readmit after re-verifying evidence."""
        cell = self.cell
        if update.subject == cell.address or not cell.invariants.is_cell(update.subject):
            return
        supporters = {
            address
            for address in update.verified_supporters()
            if cell.invariants.is_cell(address) and address != update.subject
        }
        standing = cell.consensus.standing(update.subject)
        if update.action == "exclude":
            if (
                standing.readmitted_cycle is not None
                and update.cycle < standing.readmitted_cycle
            ):
                # Replayed evidence from before the subject's readmission.
                return
            if len(supporters) < cell.consensus.exclusion_quorum(update.subject):
                return
            self._provisional_forwards.pop(update.subject.hex(), None)
            if cell.consensus.is_active(update.subject):
                cell.consensus.exclude(update.subject, update.cycle)
                cell.metrics.increment(f"{cell.node_name}/cells_excluded_by_quorum")
        else:
            if (
                standing.excluded_since_cycle is not None
                and update.cycle < standing.excluded_since_cycle
            ):
                # Acks gathered for an earlier recovery cannot readmit the
                # subject after a later exclusion.
                return
            if len(supporters) < cell.consensus.readmission_quorum(update.subject):
                return
            # The subject is (re)entering the active view: ordinary
            # forwarding covers it from here on.
            self._provisional_forwards.pop(update.subject.hex(), None)
            if not cell.consensus.is_active(update.subject):
                cell.consensus.readmit(update.subject, update.cycle)
                cell.metrics.increment(f"{cell.node_name}/cells_readmitted")

    def provisional_forward_targets(self) -> dict[Address, str]:
        """Rejoiners in their ack→readmit-commit window (address → node).

        Expired entries (votes that died without a commit either way) are
        pruned on access.  The forwarding path unions these with the
        active view, but does *not* count them toward the confirmation
        quorum — a mid-recovery rejoiner buffers forwards instead of
        confirming them.
        """
        now = self.cell.env.now
        expired = [
            key
            for key, (_, _, expiry) in self._provisional_forwards.items()
            if expiry <= now
        ]
        for key in expired:
            del self._provisional_forwards[key]
        return {
            address: node
            for address, node, _ in self._provisional_forwards.values()
        }

    # ------------------------------------------------------------------
    # Rejoin: fingerprint check (peer side) and quorum handshake (rejoiner)
    # ------------------------------------------------------------------
    def _combined_fingerprint_hex(self) -> str:
        """Combined fingerprint of this cell's non-excluded contract data."""
        return "0x" + snapshot_fingerprint(self.cell.contracts.fingerprints()).hex()

    def handle_rejoin(self, src_node: str, envelope: Envelope, request: RejoinRequest) -> None:
        """Check a rejoiner's state fingerprint and answer with a signed ack."""
        cell = self.cell
        if request.cell != envelope.sender:
            return
        own_fingerprint = self._combined_fingerprint_hex()
        agree = own_fingerprint == request.fingerprint_hex
        ack = RejoinAck.create(
            cell.signer,
            rejoiner=request.cell,
            cycle=request.cycle,
            fingerprint_hex=own_fingerprint,
            agree=agree,
            admitted_head=len(cell.ledger),
        )
        if agree and not cell.consensus.is_active(request.cell):
            # Start forwarding to the rejoiner *now*: everything this cell
            # admits between this ack and the readmit commit would
            # otherwise never reach it (forwards only go to active-view
            # peers).  The entry expires in case the vote dies quietly.
            self._provisional_forwards[request.cell.hex()] = (
                request.cell,
                src_node,
                cell.env.now + 2 * cell.invariants.forwarding_deadline,
            )
        cell._reply(src_node, envelope, Opcode.CELL_REJOIN_ACK, ack.to_data())
        cell.metrics.increment(f"{cell.node_name}/rejoin_checks")

    def _on_rejoin_ack(self, src_node: str, envelope: Envelope, ack: RejoinAck) -> None:
        """Collect one ack for this cell's in-flight rejoin attempt."""
        collection = self._rejoin_collection
        if collection is None:
            return
        if (
            ack.voter != envelope.sender
            or ack.rejoiner != self.cell.address
            or not ack.verify()
        ):
            self.cell._refuse_unauthenticated(src_node, envelope)
            return
        collection.add(ack)

    def request_rejoin(
        self, basis_cycle: int, last_sequence: int
    ) -> Generator[Event, Any, RejoinOutcome]:
        """Ask the live quorum to readmit this cell (a process).

        Broadcasts a :class:`RejoinRequest` carrying the post-resync state
        fingerprint, waits for a strict majority of agreeing signed acks
        (the wait resolves early once every active-view peer has answered,
        and gives up at the forwarding deadline), and on success commits
        the readmission consortium-wide with a :class:`MembershipUpdate`.
        The returned :class:`RejoinOutcome` names the active-view peers
        that stayed silent, so a failed vote can be turned into exclusion
        proposals instead of re-running against the same dead quorum.
        """
        cell = self.cell
        if not cell._peers:
            return RejoinOutcome(readmitted=True)
        active_peers = cell.active_peer_nodes()
        expected = {address.hex() for address in active_peers}
        required = cell.consensus.quorum_size(max(1, len(active_peers)))
        collection = _RejoinCollection(cell.env, required, expected)
        self._rejoin_collection = collection
        handshake_cycle = cell.consensus.cycle_of(cell.env.now)
        request = RejoinRequest(
            cell=cell.address,
            cycle=handshake_cycle,
            basis_cycle=basis_cycle,
            last_sequence=last_sequence,
            fingerprint_hex=self._combined_fingerprint_hex(),
        )
        # The request and the commit go to *every* peer: a peer this cell
        # holds excluded (e.g. a standby view that predates the crash) may
        # be live, and skipping it would permanently split the membership
        # views.  The quorum is still measured against the active view.
        for address, node in cell._peers.items():
            cell.endpoint.send(node, address, Opcode.CELL_REJOIN, request.to_data())
        deadline = cell.env.timeout(cell.invariants.forwarding_deadline)
        yield cell.env.any_of([collection.done, deadline])
        self._rejoin_collection = None
        acks = list(collection.acks.values())
        silent = [
            address
            for address in active_peers
            if address.hex() not in collection.acks
        ]
        agreeing = tuple(ack for ack in acks if ack.agree)
        if len(agreeing) < required:
            cell.metrics.increment(f"{cell.node_name}/rejoin_rejected")
            return RejoinOutcome(readmitted=False, acks=acks, silent=silent)
        update = MembershipUpdate(
            action="readmit", subject=cell.address, cycle=handshake_cycle, acks=agreeing
        )
        for address, node in cell._peers.items():
            cell.endpoint.send(node, address, Opcode.MEMBERSHIP_UPDATE, update.to_data())
        cell.metrics.increment(f"{cell.node_name}/rejoins_committed")
        return RejoinOutcome(readmitted=True, acks=acks, silent=silent)


class RecoveryCoordinator:
    """Bootstraps a rejoining (or fresh standby) cell from a live donor."""

    #: Resync+rejoin attempts before a recovery gives up.  More than one
    #: is needed exactly when the deployment is serving traffic *during*
    #: the recovery: peers keep executing between the donor sync and the
    #: rejoin fingerprint vote, so the first vote can legitimately find
    #: the rejoiner one step behind.  Each retry re-fetches only the
    #: delta past the already-synced tail (the full snapshot moves at
    #: most once per recovery); under any finite traffic burst the loop
    #: converges.
    REJOIN_ATTEMPTS = 3
    #: Post-readmit backfill: delta rounds before the coordinator accepts
    #: that anything still missing will arrive through ordinary (now
    #: re-enabled) forwarding, and the settle pause between rounds that
    #: lets in-flight admissions land at the donor.
    BACKFILL_ROUNDS = 8
    BACKFILL_SETTLE = 0.05

    def __init__(self, cell: "BlockumulusCell") -> None:
        self.cell = cell
        self.last_result: Optional[RecoveryResult] = None
        #: Escape hatch for the regression suite: with backfill disabled
        #: the pre-fix behaviour (readmit on fingerprint agreement alone)
        #: is reproduced so tests can prove the in-flight window is real.
        self.backfill_enabled = True

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _traffic_totals(self) -> tuple[int, int]:
        """(messages, bytes) observed so far on any link touching this cell."""
        node = self.cell.node_name
        messages = 0
        total_bytes = 0
        for (src, dst), counter in self.cell.network.traffic.items():
            if src == node or dst == node:
                messages += counter.messages
                total_bytes += counter.bytes
        return messages, total_bytes

    # ------------------------------------------------------------------
    # The resync process
    # ------------------------------------------------------------------
    def resync(
        self, donor: Address, donor_node: str
    ) -> Generator[Event, Any, RecoveryResult]:
        """Download, restore, replay, prove, and rejoin (a process).

        Returns a :class:`RecoveryResult`; ``ok`` is False when the donor
        is unreachable, the ledgers diverged, or any replayed entry's
        execution fingerprint failed to match the donor's record.  A
        failed recovery re-crashes the cell (it may hold half-restored
        state, so letting it run — and anchor fingerprints — would be
        worse than staying down); the operator can retry with a different
        donor via :meth:`BlockumulusDeployment.recover_cell`.

        A rejoin vote that merely *raced live traffic* — every peer
        answered, but their state had moved past the synced tail by the
        time they voted — is retried with a fresh delta sync, up to
        :data:`REJOIN_ATTEMPTS` attempts in total, so recovering under
        load converges instead of failing spuriously.
        """
        cell = self.cell
        started_at = cell.env.now
        messages_before, bytes_before = self._traffic_totals()
        skews = 0
        cell.recovering = True
        try:
            for attempt in range(1, self.REJOIN_ATTEMPTS + 1):
                # Each attempt reports afresh, except for what the whole
                # recovery spent: one delta sync per retry, and the replay
                # skews of every attempt.
                result = RecoveryResult(
                    cell=cell.node_name,
                    donor=donor.hex(),
                    ok=False,
                    attempts=attempt,
                    delta_syncs=attempt - 1,
                    fingerprint_skews=skews,
                    started_at=started_at,
                )
                try:
                    yield from self._resync_body(donor, donor_node, result)
                    break
                except _ResyncFailure as failure:
                    result.reason = failure.reason
                    if not failure.retryable or attempt == self.REJOIN_ATTEMPTS:
                        break
                    silent = failure.silent
                cell.metrics.increment(f"{cell.node_name}/rejoin_retries")
                # Active-view peers that never answered are most likely
                # crashed-but-unexcluded: shrink the quorum denominator by
                # voting them out before retrying, instead of waiting out
                # their crash window.
                yield from self._exclude_silent(silent)
                skews = result.fingerprint_skews
        finally:
            cell.recovering = False
        messages_after, bytes_after = self._traffic_totals()
        result.completed_at = cell.env.now
        result.messages_used = messages_after - messages_before
        result.bytes_used = bytes_after - bytes_before
        self.last_result = result
        if not result.ok:
            # Half-restored state must not serve traffic or anchor
            # fingerprints; go back down until the operator retries.
            cell.crash()
        cell.drain_recovery_forwards()
        return result

    def _resync_body(
        self, donor: Address, donor_node: str, result: RecoveryResult
    ) -> Generator[Event, Any, None]:
        """One attempt, filling ``result`` in (a process).

        Raises :class:`_ResyncFailure` at the step that fails.  Every
        attempt after the first is a delta sync on top of the state the
        first one restored.
        """
        cell = self.cell
        bundle = yield from self._fetch_sync_state(
            donor, donor_node, delta_only=result.attempts > 1
        )
        if bundle is None:
            raise _ResyncFailure("donor unreachable or sync request timed out")
        self._adopt_membership_view(bundle)

        replay_base = -1
        snapshot: Optional[DataSnapshot] = None
        if bundle.snapshot is not None:
            try:
                snapshot = DataSnapshot.from_wire(bundle.snapshot, cell_id=cell.node_name)
            except SnapshotError as exc:
                raise _ResyncFailure(f"malformed donor snapshot: {exc}") from exc
            result.snapshot_cycle = snapshot.cycle
            replay_base = snapshot.last_sequence
            self._restore_snapshot(snapshot, result)

        yield from self._replay_entries(bundle, replay_base, result)
        result.fingerprint_matched = True

        if snapshot is not None and (
            cell.snapshots.latest_cycle is None
            or snapshot.cycle > cell.snapshots.latest_cycle
        ):
            cell.snapshots.adopt(snapshot)

        if snapshot is not None:
            basis_cycle = snapshot.cycle
        else:
            # Delta-only retries ride on the snapshot adopted by the
            # first attempt (0 for a consortium that never snapshotted).
            basis_cycle = cell.snapshots.latest_cycle or 0
        outcome = yield from cell.membership.request_rejoin(
            basis_cycle=basis_cycle, last_sequence=len(cell.ledger) - 1
        )
        result.readmitted = outcome.readmitted
        result.ack_count = len(outcome.acks)
        result.silent_peers = [address.hex() for address in outcome.silent]
        cell.metrics.increment(f"{cell.node_name}/recoveries")
        if not outcome.readmitted:
            # Either peers answered but their state had moved past our
            # synced tail (live traffic during the handshake — a fresh
            # delta sync can catch up) or part of the quorum stayed
            # silent (the coordinator excludes them before retrying).
            raise _ResyncFailure(
                "readmission quorum not reached", retryable=True, silent=outcome.silent
            )
        if self.backfill_enabled:
            # The vote compared *state* fingerprints, which cannot see
            # entries peers admitted but had not executed yet.  Close
            # that window before this cell resumes anchoring: fetch the
            # delta past our head until the donor runs dry.
            yield from self._backfill(donor, donor_node, outcome.acks, result)
        result.ok = True

    def _backfill(
        self,
        donor: Address,
        donor_node: str,
        acks: list[RejoinAck],
        result: RecoveryResult,
    ) -> Generator[Event, Any, None]:
        """Admit the entries the rejoin vote's fingerprints could not see.

        Every agreeing ack carries the voter's ledger head at check time;
        if any head is past this cell's ledger, peers admitted
        transactions our sync missed.  Delta-fetch from the donor until
        two consecutive rounds apply nothing and the donor's own head is
        covered — in-flight admissions settle between rounds.  Raises
        :class:`_ResyncFailure` on divergence (a process).
        """
        cell = self.cell
        heads = [
            ack.admitted_head
            for ack in acks
            if ack.agree and ack.admitted_head >= 0
        ]
        if not heads or max(heads) <= len(cell.ledger):
            # Every agreeing voter's head was already covered by the
            # synced tail: the quiesced fast path, zero extra messages.
            return
        dry = 0
        while result.backfill_rounds < self.BACKFILL_ROUNDS:
            result.backfill_rounds += 1
            bundle = yield from self._fetch_sync_state(
                donor, donor_node, delta_only=True
            )
            result.delta_syncs += 1
            if bundle is None:
                raise _ResyncFailure("donor unreachable during post-readmit backfill")
            applied_before = result.replayed
            yield from self._replay_entries(bundle, -1, result)
            applied = result.replayed - applied_before
            result.live_backfilled += applied
            if applied == 0 and bundle.head <= len(cell.ledger):
                dry += 1
                if dry >= 2:
                    return
            else:
                dry = 0
            yield cell.env.timeout(self.BACKFILL_SETTLE)

    def _exclude_silent(self, silent: Sequence[Address]) -> Generator[Event, Any, None]:
        """Open exclusion votes on peers that ignored the rejoin vote.

        A crashed-but-unexcluded peer inflates the readmission quorum
        denominator while never contributing an ack, forcing recoveries
        to wait out its crash window.  Proposing its exclusion makes the
        live peers probe it; once the vote commits, the next rejoin
        attempt measures its quorum against peers that can actually
        answer (a process).
        """
        cell = self.cell
        cycle = cell.consensus.cycle_of(cell.env.now)
        proposed = False
        for address in silent:
            if not cell.consensus.is_active(address):
                continue
            cell.membership.propose_exclusion(
                address, cycle, "no answer to rejoin vote"
            )
            proposed = True
        if proposed:
            # Give the live peers time to probe the suspects and vote
            # before the next attempt measures its quorum.
            yield cell.env.timeout(cell.invariants.probe_deadline + 1.0)

    def _fetch_sync_state(
        self, donor: Address, donor_node: str, delta_only: bool = False
    ) -> Generator[Event, Any, Optional[SyncState]]:
        """One CELL_SYNC round-trip to the donor (None on timeout).

        ``delta_only`` asks the donor to skip the snapshot payload and
        ship just the ledger entries past this cell's head — what rejoin
        retries and the post-readmit backfill use, so only the first
        attempt of a recovery ever moves a full snapshot.
        """
        cell = self.cell
        sync = SyncRequest(since_sequence=len(cell.ledger), delta_only=delta_only)
        _request, bundle = cell.endpoint.ask(
            donor_node, donor, Opcode.CELL_SYNC, sync.to_data(),
            deadline=cell.invariants.forwarding_deadline,
        )
        if not bundle.triggered:  # a request that never left: None in this same step
            yield bundle
        return bundle.value

    def _adopt_membership_view(self, bundle: SyncState) -> None:
        """Replace this cell's stale membership view with the donor's.

        A cell that was down (or a standby that never served) has no way to
        have tracked exclusions and readmissions that happened in the
        meantime; the donor's current view is the best available and comes
        from the same peer trusted for state.  The rejoiner's own standing
        is skipped — its peers decide that through the rejoin vote.
        """
        cell = self.cell
        excluded = set(bundle.excluded)
        cycle = cell.consensus.cycle_of(cell.env.now)
        for address in cell.invariants.cell_addresses:
            if address == cell.address:
                continue
            if address.hex() in excluded:
                if cell.consensus.is_active(address):
                    cell.consensus.exclude(address, cycle)
            elif not cell.consensus.is_active(address):
                cell.consensus.readmit(address, cycle)

    def _restore_snapshot(self, snapshot: DataSnapshot, result: RecoveryResult) -> None:
        """Overwrite local contract state from the donor snapshot.

        Proof step 1: every restored contract must hash to the fingerprint
        the donor's snapshot (and hence its anchored report) claims for it.
        If the snapshot is *older* than this cell's ledger head, the local
        entries past the snapshot boundary are rolled back first — their
        effects vanish with the restore, and they are re-executed from the
        donor's tail.  Raises :class:`_ResyncFailure` on a mismatch.
        """
        cell = self.cell
        result.truncated = cell.ledger.truncate(snapshot.last_sequence)
        state_export = snapshot.materialized_state()
        for name, state in state_export.items():
            if not cell.contracts.contains(name):
                # A community contract deployed while this cell was down and
                # before the donor snapshot: its source is no longer in the
                # ledger tail, so it cannot be rebuilt here.  Recorded so
                # operators can redeploy it explicitly.
                result.skipped_contracts.append(name)
                continue
            contract = cell.contracts.get(name)
            contract.restore_state(state)
            expected = snapshot.contract_fingerprints.get(name)
            if expected is not None and contract.fingerprint() != expected:
                raise _ResyncFailure(
                    f"restored state of {name!r} does not match the donor fingerprint"
                )
        for name in snapshot.excluded_contracts:
            if cell.contracts.contains(name):
                cell.contracts.exclude(name)

    def _replay_entries(
        self, bundle: SyncState, replay_base: int, result: RecoveryResult
    ) -> Generator[Event, Any, None]:
        """Backfill snapshot-covered entries and re-execute the tail.

        Proof step 2: every re-executed entry's post-execution contract
        fingerprint must equal the donor's recorded one — matching the
        consortium's execution fingerprints entry by entry is what
        qualifies the cell to rejoin the confirmation quorum.  Raises
        :class:`_ResyncFailure` at the first entry that cannot be replayed.
        """
        cell = self.cell
        for item in bundle.entries:
            summary = item.summary
            sequence = summary.sequence
            if sequence < len(cell.ledger):
                local_tx = cell.ledger.entry_at(sequence).tx_id
                if local_tx == summary.tx_id:
                    continue
                self._drop_admitted_suffix(sequence, summary, result)
                # The admitted-only local suffix is gone; fall through and
                # admit the donor's entry at this now-free sequence.
            try:
                envelope = Envelope.from_wire(item.envelope)
            except ValueError as exc:
                raise _ResyncFailure(
                    f"malformed donor ledger entry at sequence {sequence}: {exc}"
                ) from exc
            if not envelope.verify():
                raise _ResyncFailure(
                    f"donor ledger entry {sequence} has an invalid client signature"
                )
            if sequence <= replay_base:
                try:
                    cell.ledger.backfill(envelope, summary, item.result)
                except LedgerError as exc:
                    raise _ResyncFailure(f"ledger backfill failed: {exc}") from exc
                result.backfilled += 1
                continue
            # Re-execute the post-snapshot tail, paying the same simulated
            # CPU cost as live execution so recovery latency is honest.
            yield from cell.cpu.use(cell.service_model.invoke_cpu)
            try:
                entry = cell.ledger.admit(
                    envelope, cycle=summary.cycle, contingency=summary.contingency
                )
            except LedgerError as exc:
                raise _ResyncFailure(f"ledger replay admission failed: {exc}") from exc
            try:
                outcome = cell.executor.execute(entry)
            except BContractError as exc:
                raise _ResyncFailure(f"replay of sequence {sequence} failed: {exc}") from exc
            if outcome.ok:
                cell.ledger.mark_executed(
                    outcome.tx_id, outcome.contract, outcome.result, outcome.fingerprint
                )
            else:
                cell.ledger.mark_rejected(
                    outcome.tx_id, outcome.contract, outcome.error or ""
                )
            donor_status = summary.status
            # A donor status of "admitted" is not a claim about execution:
            # the donor simply had not executed the entry yet when it
            # served the sync (the backfill phase fetches exactly such
            # entries).  Executing ahead of the donor is safe.  Replay runs
            # the tail serially in ledger order, which is not the order live
            # execution used (the lane gate grants by rank, and lanes
            # overlap), but transactions whose conflicting outcomes commute
            # end the same either way; a status that differs from the
            # donor's recorded one is a divergence and fails below.
            if donor_status != "admitted" and outcome.status != donor_status:
                raise _ResyncFailure(
                    f"replay of sequence {sequence} diverged: local status "
                    f"{outcome.status!r} vs donor {donor_status!r}"
                )
            if (
                summary.fingerprint is not None
                and outcome.ok
                and outcome.fingerprint != summary.fingerprint
            ):
                # Not fatal: the donor executes entries as they clear its
                # execution gate, which under concurrent traffic is not
                # ledger order, so its recorded per-entry fingerprint can
                # capture a different intermediate state than this
                # ledger-order replay.  Real state divergence is caught by
                # the readmission vote over the full combined fingerprint.
                result.fingerprint_skews += 1
            result.replayed += 1

    def _drop_admitted_suffix(
        self, sequence: int, summary: EntrySummary, result: RecoveryResult
    ) -> None:
        """Roll back a local admitted-only suffix that diverged from the donor.

        A cell can crash holding entries it admitted but never executed
        (or forwarded) — the batch dispatcher flushes on a quantum, so a
        crash can strand them locally.  Such entries changed no contract
        state and no peer ever saw them, so dropping them in favour of the
        donor's stream is safe; the client simply never gets a receipt,
        exactly as if the submission had been lost with the crash.  Any
        *executed* entry in the divergent suffix is real divergence and
        stays fatal: it raises :class:`_ResyncFailure`.
        """
        cell = self.cell
        for seq in range(sequence, len(cell.ledger)):
            entry = cell.ledger.entry_at(seq)
            if entry.status != "admitted":
                local_tx = cell.ledger.entry_at(sequence).tx_id
                raise _ResyncFailure(
                    f"ledger divergence at sequence {sequence}: "
                    f"local {local_tx} vs donor {summary.tx_id} "
                    f"with executed entries in the divergent suffix"
                )
        result.truncated += cell.ledger.truncate(sequence - 1)
