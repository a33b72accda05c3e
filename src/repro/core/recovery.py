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

* :class:`RecoveryStage` — the resync half, run by a rejoining (or
  brand-new standby) cell, with the donor half that answers it and the
  gate the cell holds meanwhile.  Its first ``CELL_SYNC`` names the cell's
  latest snapshot, which a donor retaining it builds on; any other ships
  its own latest.  Every bundle is applied one way: restore its base
  snapshot, backfill the full records the base covers, and replay the
  entries past it through the cell's own executor, matching the donor's
  recorded outcomes.  The cell then requests readmission with the quorum
  handshake above, and — because state fingerprints cannot see
  transactions peers *admitted* but had not executed when they voted —
  replays exactly that gap in post-readmit delta rounds before it
  resumes anchoring.  The result is a cell whose ledger, contract state,
  and future snapshot fingerprints are indistinguishable from a cell
  that never crashed, even when the consortium kept serving full-rate
  traffic throughout the recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Sequence, TYPE_CHECKING

from ..contracts.context import BContractError
from ..crypto.fingerprint import snapshot_fingerprint
from ..crypto.keys import Address
from ..messages.envelope import Envelope, EnvelopeError, LinkEnvelope
from ..messages.membership import (
    ExclusionProposal,
    ExclusionVote,
    MembershipUpdate,
    RejoinAck,
    RejoinRequest,
    ReplayEntry,
    SnapshotBasis,
    SyncEntry,
    SyncRequest,
    SyncState,
)
from ..messages.opcodes import Opcode
from ..messages.requests import Pong
from ..sim.environment import Clock
from ..sim.events import Event
from .ledger import LedgerEntry, LedgerError
from .snapshot import DataSnapshot, SnapshotError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cell import BlockumulusCell


@dataclass
class RecoveryResult:
    """Outcome of one crash→resync→rejoin cycle, counted over all its attempts."""

    cell: str
    donor: str
    ok: bool
    reason: Optional[str] = None
    backfilled: int = 0
    replayed: int = 0
    #: Replayed entries this cell already held, which the donor named
    #: instead of shipping (a first sync built on this cell's own snapshot).
    referenced: int = 0
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
    #: Entries replayed *after* the first sync — by delta retries and the
    #: post-readmit backfill phase.  Under quiesced traffic this is 0;
    #: under load it is exactly the in-flight window the rejoin vote's
    #: state fingerprints could not see.
    live_backfilled: int = 0
    #: Post-readmit backfill rounds run (0 when every agreeing ack's
    #: admitted head was already covered by the synced ledger).
    backfill_rounds: int = 0
    #: Delta-only CELL_SYNC round-trips (retries + backfill rounds); only
    #: the first sync of a recovery can move a snapshot, so this is the
    #: count that bounds recovery traffic under load.
    delta_syncs: int = 0
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

    def __init__(self, clock: Clock, required: int, expected: set[str]) -> None:
        self.required = required
        self.expected = expected
        self.acks: dict[str, RejoinAck] = {}
        self.done: Event = clock.event()

    def add(self, ack: RejoinAck) -> None:
        """Record one verified ack, firing when quorum or all-answered."""
        self.acks[ack.voter.hex()] = ack
        if self.done.triggered:
            return
        agreeing = sum(1 for item in self.acks.values() if item.agree)
        if agreeing >= self.required or (self.expected and self.expected <= set(self.acks)):
            self.done.succeed(agreeing)


class MembershipManager:
    """Quorum voting on exclusions and readmissions, for one cell."""

    #: How long an exclusion-vote liveness probe (PING) waits for a PONG.
    PROBE_DEADLINE = 2.0

    def __init__(self, cell: "BlockumulusCell", clock: Clock) -> None:
        self.cell = cell
        self.clock = clock
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
        elif not self.cell.endpoint.resolve(src_node, envelope, body):
            # Another cell answering in the asked peer's name: a third
            # party's PONG must not vouch for a suspect, nor its state
            # pass for the donor's.
            self.cell.refuse_unauthenticated(src_node, envelope)

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
        for address, node in cell.peers.items():
            if address == suspect:
                continue
            cell.endpoint.send(node, address, Opcode.CELL_EXCLUDE, proposal.to_data())
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
        cell.reply(src_node, envelope, Opcode.CELL_EXCLUDE_VOTE, vote.to_data())

    def _probe(self, suspect: Address) -> Generator[Event, Any, bool]:
        """PING the suspect; True (= vote to exclude) if it stays silent."""
        cell = self.cell
        node = cell.peers.get(suspect)
        if node is None:
            return True
        _request, pong = cell.endpoint.ask(
            node, suspect, Opcode.PING, {"probe": True}, deadline=self.PROBE_DEADLINE
        )
        if not pong.triggered:  # a PING that never left: vote in this same step
            yield pong
        return pong.value is None

    def handle_vote(self, src_node: str, envelope: Envelope, vote: ExclusionVote) -> None:
        """Count one incoming vote on a proposal this cell initiated."""
        if vote.voter != envelope.sender or not vote.verify():
            self.cell.refuse_unauthenticated(src_node, envelope)
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
        for address, node in cell.peers.items():
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

    def provisional_forward_targets(self) -> dict[Address, str]:
        """Rejoiners in their ack→readmit-commit window (address → node).

        Expired entries (votes that died without a commit either way) are
        pruned on access.  The forwarding path unions these with the
        active view, but does *not* count them toward the confirmation
        quorum — a mid-recovery rejoiner buffers forwards instead of
        confirming them.
        """
        now = self.clock.now
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
            cell.refuse_unauthenticated(src_node, envelope)
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
                self.clock.now + 2 * cell.invariants.forwarding_deadline,
            )
        cell.reply(src_node, envelope, Opcode.CELL_REJOIN_ACK, ack.to_data())

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
            self.cell.refuse_unauthenticated(src_node, envelope)
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
        if not cell.peers:
            return RejoinOutcome(readmitted=True)
        active_peers = cell.active_peer_nodes()
        expected = {address.hex() for address in active_peers}
        required = cell.consensus.quorum_size(max(1, len(active_peers)))
        collection = _RejoinCollection(self.clock, required, expected)
        self._rejoin_collection = collection
        handshake_cycle = cell.consensus.cycle_of(self.clock.now)
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
        for address, node in cell.peers.items():
            cell.endpoint.send(node, address, Opcode.CELL_REJOIN, request.to_data())
        deadline = self.clock.timeout(cell.invariants.forwarding_deadline)
        yield self.clock.any_of([collection.done, deadline])
        self._rejoin_collection = None
        acks = list(collection.acks.values())
        silent = [
            address
            for address in active_peers
            if address.hex() not in collection.acks
        ]
        agreeing = tuple(ack for ack in acks if ack.agree)
        if len(agreeing) < required:
            return RejoinOutcome(readmitted=False, acks=acks, silent=silent)
        update = MembershipUpdate(
            action="readmit", subject=cell.address, cycle=handshake_cycle, acks=agreeing
        )
        for address, node in cell.peers.items():
            cell.endpoint.send(node, address, Opcode.MEMBERSHIP_UPDATE, update.to_data())
        return RejoinOutcome(readmitted=True, acks=acks, silent=silent)


class RecoveryStage:
    """Resync this cell from a donor, serve as one, and hold the gate meanwhile.

    While a resync is in flight (:attr:`recovering`) half-restored state
    must neither serve a transaction nor anchor a fingerprint: the ingress
    sheds client arrivals (:meth:`sheds_client`), the peer stage parks
    forwards (:meth:`parks`) and the cycle stage takes no snapshot.
    """

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

    def __init__(self, cell: "BlockumulusCell", clock: Clock) -> None:
        self.cell = cell
        self.clock = clock
        self.last_result: Optional[RecoveryResult] = None
        #: Client arrivals shed because a resync was in flight.
        self.shed = 0
        # Work parked while a resync is in flight (None: no resync is).
        self._parked: Optional[list[tuple[Callable[..., Any], tuple[Any, ...]]]] = None

    # ------------------------------------------------------------------
    # The gate a resync holds
    # ------------------------------------------------------------------
    @property
    def recovering(self) -> bool:
        """Whether a resync is in flight (no snapshot is taken meanwhile)."""
        return self._parked is not None

    def sheds_client(self) -> bool:
        """Whether a client arrival must be shed, counting it if so.

        It gets backpressure's OVERLOADED outcome: the client retries
        elsewhere, and no protocol trace is left.
        """
        if self._parked is None:
            return False
        self.shed += 1
        return True

    def parks(self, handler: Callable[..., Generator[Event, Any, None]], *args: Any) -> bool:
        """Whether ``handler(*args)`` must wait for the resync, parking it if so.

        The ledger must stay aligned with the donor's stream (the replay
        fails on interleaved admissions).  A resync settles well inside the
        forwarding deadline; a failed one re-crashes the cell, which drops
        the parked work like in-flight traffic at a crash.
        """
        if self._parked is None:
            return False
        self._parked.append((handler, args))
        return True

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

        The gate (:attr:`recovering`) holds throughout.  Returns a
        :class:`RecoveryResult`; ``ok`` is False when the donor is
        unreachable or hostile, the ledgers diverged, or the readmission
        vote failed :data:`REJOIN_ATTEMPTS` times (each retry on a fresh
        delta sync, as a vote that raced live traffic can pass on one).  A
        failed recovery re-crashes the cell, since half-restored state is
        worse than staying down; the operator can retry with another donor
        (:meth:`BlockumulusDeployment.recover_cell`).  A successful one
        re-handles the forwards it parked.
        """
        cell = self.cell
        result = RecoveryResult(
            cell=cell.node_name, donor=donor.hex(), ok=False, started_at=self.clock.now
        )
        messages_before, bytes_before = self._traffic_totals()
        self._parked = self._parked or []  # a resync already in flight keeps its work
        try:
            for attempt in range(1, self.REJOIN_ATTEMPTS + 1):
                result.attempts = attempt
                try:
                    yield from self._resync_body(donor, donor_node, result)
                    break
                except _ResyncFailure as failure:
                    if not failure.retryable or attempt == self.REJOIN_ATTEMPTS:
                        result.reason = failure.reason
                        break
                    silent = failure.silent
                # Active-view peers that never answered are most likely
                # crashed-but-unexcluded: shrink the quorum denominator by
                # voting them out before retrying, instead of waiting out
                # their crash window.
                yield from self._exclude_silent(silent)
        finally:
            parked, self._parked = self._parked or [], None
        messages_after, bytes_after = self._traffic_totals()
        result.completed_at = self.clock.now
        result.messages_used = messages_after - messages_before
        result.bytes_used = bytes_after - bytes_before
        self.last_result = result
        if not result.ok:
            # Half-restored state must not serve traffic or anchor
            # fingerprints; go back down until the operator retries.
            cell.crash()
        if not cell.fault.crashed:
            # A forward whose entry the backfill already admitted takes the
            # duplicate path and confirms from the recorded outcome.
            for handler, args in parked:
                self.clock.process(handler(*args))
        return result

    def _resync_body(
        self, donor: Address, donor_node: str, result: RecoveryResult
    ) -> Generator[Event, Any, None]:
        """One attempt, adding to ``result`` (a process).

        Raises :class:`_ResyncFailure` at the step that fails.  The first
        attempt names this cell's latest retained snapshot and the entries
        it holds past it; every later one is a delta round on top of the
        state the first restored.
        """
        cell = self.cell
        first = result.attempts == 1
        own = self._nameable_snapshot() if first else None
        held = [] if own is None else [
            cell.ledger.entry_at(sequence)
            for sequence in range(own.last_sequence + 1, len(cell.ledger))
        ]
        if not first:
            result.delta_syncs += 1
        bundle = yield from self._fetch_sync_state(
            donor, donor_node, delta_only=not first, own=own, held=held
        )
        if bundle is None:
            raise _ResyncFailure("donor unreachable or sync request timed out")
        self._adopt_membership_view(bundle)
        replayed = result.replayed
        basis_cycle = yield from self._apply_bundle(
            bundle, result, own, [entry.envelope for entry in held]
        )
        if not first:
            result.live_backfilled += result.replayed - replayed
        result.fingerprint_matched = True
        outcome = yield from cell.membership.request_rejoin(
            basis_cycle=basis_cycle, last_sequence=len(cell.ledger) - 1
        )
        result.readmitted = outcome.readmitted
        result.ack_count = len(outcome.acks)
        cell.metrics.increment(f"{cell.node_name}/recoveries")
        if not outcome.readmitted:
            # Either peers answered but their state had moved past our
            # synced tail (live traffic during the handshake — a fresh
            # delta sync can catch up) or part of the quorum stayed
            # silent (the coordinator excludes them before retrying).
            raise _ResyncFailure(
                "readmission quorum not reached", retryable=True, silent=outcome.silent
            )
        # The vote compared *state* fingerprints, which cannot see
        # entries peers admitted but had not executed yet.  Close that
        # window before this cell resumes anchoring: fetch the delta past
        # our head until the donor runs dry.
        yield from self._backfill(donor, donor_node, outcome.acks, result)
        result.ok = True

    def _nameable_snapshot(self) -> Optional[DataSnapshot]:
        """This cell's latest retained snapshot, if a resync can build on it.

        It must hold the state of every contract it fingerprints, and the
        ledger must still reach its boundary.
        """
        cell = self.cell
        if cell.snapshots.latest_cycle is None:
            return None
        latest = cell.snapshots.latest()
        if latest.last_sequence >= len(cell.ledger) or not all(
            name in latest.state_export for name in latest.contract_fingerprints
        ):
            return None
        return latest

    def _apply_bundle(
        self, bundle: SyncState, result: RecoveryResult,
        own: Optional[DataSnapshot] = None, held: Sequence[Envelope] = (),
    ) -> Generator[Event, Any, int]:
        """Apply one ``CELL_SYNC_STATE``, whichever round it answers (a process).

        Restores the base (:meth:`_base_of`), backfills the full records at
        or below its boundary, replays the entries past it
        (:meth:`_replay_past`) and adopts whichever of the base and the
        rebuilt snapshots is newer than this cell's latest.  Returns the
        cycle the rejoin vote names: the newest of those, or else this
        cell's latest (0 if it has none).
        """
        base = self._base_of(bundle, own)
        boundary = -1
        if base is not None:
            self._restore_snapshot(base, result)
            boundary = base.last_sequence
        self._backfill_records(bundle.entries, boundary, result)
        rebuilt = yield from self._replay_past(base, bundle, held, result)
        snapshots = self.cell.snapshots
        restored = rebuilt if base is None else [base, *rebuilt]
        for snapshot in restored:
            if snapshots.latest_cycle is None or snapshot.cycle > snapshots.latest_cycle:
                snapshots.adopt(snapshot)
        return restored[-1].cycle if restored else snapshots.latest_cycle or 0

    def _base_of(self, bundle: SyncState, own: Optional[DataSnapshot]) -> Optional[DataSnapshot]:
        """The snapshot ``bundle`` builds on: ``own`` where it states that
        basis, else the donor's shipped one, or none.

        Raises :class:`_ResyncFailure` for a basis this cell did not name,
        later snapshots stated without one, or a malformed snapshot.
        """
        if bundle.basis is not None:
            if own is None or bundle.basis != _basis_of(own) or bundle.snapshot is not None:
                raise _ResyncFailure(
                    f"donor built on snapshot {bundle.basis.cycle} "
                    f"(last sequence {bundle.basis.last_sequence}), which this cell did not name"
                )
            return own
        if bundle.newer:
            raise _ResyncFailure("donor stated later snapshots without a basis")
        if bundle.snapshot is None:
            return None
        try:
            return DataSnapshot.from_wire(bundle.snapshot, cell_id=self.cell.node_name)
        except SnapshotError as exc:
            raise _ResyncFailure(f"malformed donor snapshot: {exc}") from exc

    def _replay_past(
        self, base: Optional[DataSnapshot], bundle: SyncState, held: Sequence[Envelope],
        result: RecoveryResult,
    ) -> Generator[Event, Any, list[DataSnapshot]]:
        """Replay a bundle's entries past ``base``, rebuilding each later snapshot it states.

        A bundle built on this cell's own snapshot states every snapshot
        the donor retains past it (its cycle, boundary and combined
        fingerprint).  Once the replay has admitted the entry at a stated
        boundary, this cell builds its own snapshot of that cycle, which
        must have the stated fingerprint: the recovered cell then holds the
        snapshots its auditors ask for, as the donor's shipped one was held
        before.  Returns them, oldest first, for the caller to retain once
        the replay has succeeded; raises :class:`_ResyncFailure` at a
        boundary the replay does not end on or a fingerprint it does not
        reproduce (a process).
        """
        snapshots = self.cell.snapshots
        rebuilt: list[DataSnapshot] = []
        replay = bundle.replay
        boundary, first, previous = (
            (-1, 0, -1) if base is None else (base.last_sequence, base.first_sequence, base.cycle)
        )
        try:
            for stated in bundle.newer:
                cut = next(
                    (at for at, item in enumerate(replay) if item.sequence > stated.last_sequence),
                    len(replay),
                )
                yield from self._replay_entries(replay[:cut], boundary, result, held)
                replay = replay[cut:]
                if stated.cycle <= previous or stated.last_sequence != len(self.cell.ledger) - 1:
                    raise _ResyncFailure(
                        f"donor stated snapshot {stated.cycle} (last sequence "
                        f"{stated.last_sequence}), which its replay past snapshot "
                        f"{previous} does not end on"
                    )
                rebuilt.append(snapshots.build(
                    stated.cycle, self.clock.now, first, stated.last_sequence
                ))
                if rebuilt[-1].fingerprint != stated.fingerprint:
                    raise _ResyncFailure(
                        f"replay to the boundary of snapshot {stated.cycle} does not "
                        f"reproduce the donor's fingerprint"
                    )
                previous = stated.cycle
            yield from self._replay_entries(replay, boundary, result, held)
        except BaseException:
            for snapshot in rebuilt:
                snapshot.release_state()
            raise
        return rebuilt

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
        covered — in-flight admissions settle between rounds.  Each round
        is applied like any other bundle (:meth:`_apply_bundle`).  Raises
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
            yield from self._apply_bundle(bundle, result)
            applied = result.replayed - applied_before
            result.live_backfilled += applied
            if applied == 0 and bundle.head <= len(cell.ledger):
                dry += 1
                if dry >= 2:
                    return
            else:
                dry = 0
            yield self.clock.timeout(self.BACKFILL_SETTLE)

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
        cycle = cell.consensus.cycle_of(self.clock.now)
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
            yield self.clock.timeout(MembershipManager.PROBE_DEADLINE + 1.0)

    def _serve_sync(self, src_node: str, envelope: Envelope, request: SyncRequest) -> None:
        """The donor half of ``CELL_SYNC``: the bundle :meth:`_fetch_sync_state` reads.

        Any consortium cell may ask, also one this cell holds excluded.  A
        first sync whose named snapshot this cell retains too (same cycle,
        boundary and fingerprint) ships no snapshot: it states that basis
        and every later snapshot it retains, and replays every entry past
        the basis's boundary, each held one as its position in the
        request's ``held``.  Any other first sync carries the latest
        snapshot, the full records of the entries from ``since_sequence``
        up to its boundary, which the requester backfills, and the entries
        past it: the requester rolls back to the snapshot
        (:meth:`_restore_snapshot`) and re-executes forward.  A
        ``delta_only`` sync is one that ships no snapshot: it replays the
        entries from ``since_sequence``, bytes proportional to the gap.
        """
        cell = self.cell
        ledger, consortium = cell.ledger, cell.invariants.cell_addresses
        snapshot_wire: Optional[dict[str, Any]] = None
        basis: Optional[SnapshotBasis] = None
        start = request.since_sequence
        entries: list[SyncEntry] = []
        replay: list[ReplayEntry] = []
        newer: list[SnapshotBasis] = []
        if request.basis is not None and self._retains(request.basis):
            basis = request.basis
            replay = ledger.replay_segment(basis.last_sequence + 1, consortium, request.held)
            newer = [
                _basis_of(cell.snapshots.get(cycle))
                for cycle in cell.snapshots.retained_cycles() if cycle > basis.cycle
            ]
        else:
            boundary = start - 1
            if cell.snapshots.latest_cycle is not None and not request.delta_only:
                latest = cell.snapshots.latest()
                snapshot_wire = latest.to_wire(include_state=True)
                boundary = latest.last_sequence
                entries = ledger.sync_segment(min(start, boundary + 1), boundary + 1)
            replay = ledger.replay_segment(boundary + 1, consortium)
        bundle = SyncState(
            donor=cell.address,
            snapshot=snapshot_wire,
            basis=basis,
            entries=tuple(entries),
            replay=tuple(replay),
            newer=tuple(newer),
            excluded=tuple(address.hex() for address in cell.consensus.excluded_cells()),
            head=len(ledger),
        )
        cell.metrics.increment(f"{cell.node_name}/syncs_served")
        cell.reply(src_node, envelope, Opcode.CELL_SYNC_STATE, bundle.to_data())

    def _retains(self, basis: SnapshotBasis) -> bool:
        """Whether this cell retains the snapshot ``basis`` names, as it names it."""
        snapshots = self.cell.snapshots
        return snapshots.has(basis.cycle) and _basis_of(snapshots.get(basis.cycle)) == basis

    def _fetch_sync_state(
        self,
        donor: Address,
        donor_node: str,
        delta_only: bool = False,
        own: Optional[DataSnapshot] = None,
        held: Sequence[LedgerEntry] = (),
    ) -> Generator[Event, Any, Optional[SyncState]]:
        """One CELL_SYNC round-trip to the donor (None on timeout).

        ``delta_only`` asks the donor (:meth:`_serve_sync`) to skip the
        snapshot payload and replay just the ledger entries past this
        cell's head — what rejoin retries and the post-readmit backfill
        use, so only the first attempt of a recovery can move a snapshot.
        ``own`` names this cell's snapshot for the donor to build on, and
        ``held`` its entries past that snapshot's boundary.
        """
        cell = self.cell
        sync = SyncRequest(
            since_sequence=len(cell.ledger),
            delta_only=delta_only,
            basis=None if own is None else _basis_of(own),
            held=tuple(entry.tx_id for entry in held),
        )
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
        cycle = cell.consensus.cycle_of(self.clock.now)
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
        result.truncated += cell.ledger.truncate(snapshot.last_sequence)
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

    def _backfill_records(
        self, records: Sequence[SyncEntry], boundary: int, result: RecoveryResult
    ) -> None:
        """Record the donor's full records of what its shipped snapshot covers.

        Each is recorded with its result, unexecuted: the restored state
        already holds its effects.  Raises :class:`_ResyncFailure` at a
        record past ``boundary`` (the snapshot's) or one that cannot be
        recorded.
        """
        ledger = self.cell.ledger
        for record in records:
            summary = record.summary
            sequence = summary.sequence
            if sequence > boundary:
                raise _ResyncFailure(
                    f"donor ledger entry {sequence} lies past the snapshot with its full record"
                )
            if self._holds(sequence, summary.tx_id):
                # Held already: the record is discarded unread, so its
                # envelope is neither parsed nor verified.
                continue
            try:
                envelope = Envelope.from_wire(record.envelope)
            except ValueError as exc:
                raise _ResyncFailure(
                    f"malformed donor ledger entry at sequence {sequence}: {exc}"
                ) from exc
            self._signed_by_its_client(envelope, sequence)
            self._drop_admitted_suffix(sequence, summary.tx_id, result)
            try:
                ledger.backfill(envelope, summary, record.result)
            except LedgerError as exc:
                raise _ResyncFailure(f"ledger backfill failed: {exc}") from exc
            result.backfilled += 1

    def _replay_entries(
        self, entries: Sequence[ReplayEntry], boundary: int, result: RecoveryResult,
        held: Sequence[Envelope] = (),
    ) -> Generator[Event, Any, None]:
        """Re-execute the donor's entries past ``boundary``, in its order.

        Each names its client envelope in link form, or one this cell
        held by its position in ``held``.  An entry this cell holds at its
        position already is skipped before its signature is checked.
        Raises :class:`_ResyncFailure` at the first entry that cannot be
        replayed.
        """
        ledger = self.cell.ledger
        for item in entries:
            envelope = self._replayed_envelope(item, held)
            # Hashing drops the payload's encoding, which the signature
            # check reads: past the head, where nothing is held, check first.
            if item.sequence < len(ledger) and self._holds(
                item.sequence, envelope.payload.hash_hex()
            ):
                continue
            if item.held is None:
                self._signed_by_its_client(envelope, item.sequence)
            self._drop_admitted_suffix(item.sequence, envelope.payload.hash_hex(), result)
            if item.sequence <= boundary:
                raise _ResyncFailure(
                    f"donor ledger entry {item.sequence} lies within the snapshot "
                    f"without its record"
                )
            yield from self._reexecute(
                envelope, item.sequence, item.cycle, item.status, item.fingerprint,
                bool(item.contingency), result,
            )
            if item.held is not None:
                result.referenced += 1

    def _holds(self, sequence: int, tx_id: str) -> bool:
        """Whether this cell's entry at ``sequence`` is the donor's ``tx_id``."""
        ledger = self.cell.ledger
        return sequence < len(ledger) and ledger.entry_at(sequence).tx_id == tx_id

    def _reexecute(
        self,
        envelope: Envelope,
        sequence: int,
        cycle: int,
        status: str,
        fingerprint: Optional[bytes],
        contingency: bool,
        result: RecoveryResult,
    ) -> Generator[Event, Any, None]:
        """Admit and execute the donor's entry at ``sequence`` at the local head.

        Proof step 2: every re-executed entry's outcome must be the donor's
        recorded one — matching the consortium's execution entry by entry
        is what qualifies the cell to rejoin the confirmation quorum.  An
        entry lands exactly at the local head: one past it is a gap.
        """
        cell = self.cell
        ledger = cell.ledger
        if sequence != len(ledger):
            raise _ResyncFailure(
                f"donor ledger entry {sequence} does not follow local head {len(ledger)}"
            )
        # Re-execute the post-snapshot tail, paying the same simulated
        # CPU cost as live execution so recovery latency is honest.
        yield from cell.execute.cpu.use(cell.service_model.invoke_cpu)
        try:
            entry = ledger.admit(envelope, cycle=cycle, contingency=contingency)
        except LedgerError as exc:
            raise _ResyncFailure(f"ledger replay admission failed: {exc}") from exc
        try:
            outcome = cell.executor.execute(entry)
        except BContractError as exc:
            raise _ResyncFailure(f"replay of sequence {sequence} failed: {exc}") from exc
        if outcome.ok:
            ledger.mark_executed(
                outcome.tx_id, outcome.contract, outcome.result, outcome.fingerprint
            )
        else:
            ledger.mark_rejected(outcome.tx_id, outcome.contract, outcome.error or "")
        # A donor status of "admitted" is not a claim about execution:
        # the donor simply had not executed the entry yet when it
        # served the sync (the backfill phase fetches exactly such
        # entries).  Executing ahead of the donor is safe.  Replay runs
        # the tail serially in ledger order, which is not the order live
        # execution used (the lane gate grants by rank, and lanes
        # overlap), but transactions whose conflicting outcomes commute
        # end the same either way; a status that differs from the
        # donor's recorded one is a divergence and fails below.
        if status != "admitted" and outcome.status != status:
            raise _ResyncFailure(
                f"replay of sequence {sequence} diverged: local status "
                f"{outcome.status!r} vs donor {status!r}"
            )
        if fingerprint is not None and outcome.ok and outcome.fingerprint != fingerprint:
            # Not fatal: the donor executes entries as they clear its
            # execution gate, which under concurrent traffic is not
            # ledger order, so its recorded per-entry fingerprint can
            # capture a different intermediate state than this
            # ledger-order replay.  Real state divergence is caught by
            # the readmission vote over the full combined fingerprint.
            result.fingerprint_skews += 1
        result.replayed += 1

    def _replayed_envelope(self, item: ReplayEntry, held: Sequence[Envelope]) -> Envelope:
        """The client envelope of a replayed entry: one this cell held, or the
        link form read under the consortium cell it names (its signature
        not yet checked)."""
        sequence = item.sequence
        if item.held is not None:
            if item.held >= len(held):
                raise _ResyncFailure(
                    f"donor ledger entry {sequence} names held entry {item.held}, "
                    f"which this cell does not hold"
                )
            return held[item.held]
        consortium = self.cell.invariants.cell_addresses
        try:
            link = LinkEnvelope.from_wire(item.envelope)
            if item.to is not None and item.to >= len(consortium):
                raise EnvelopeError(f"recipient {item.to} is no consortium cell")
            envelope = link.envelope(
                None if item.to is None else consortium[item.to],
                operation=None if "operation" in link.payload else Opcode.TX_SUBMIT,
            )
        except EnvelopeError as exc:
            raise _ResyncFailure(
                f"malformed donor ledger entry at sequence {sequence}: {exc}"
            ) from exc
        return envelope

    @staticmethod
    def _signed_by_its_client(envelope: Envelope, sequence: int) -> Envelope:
        if not envelope.verify():
            raise _ResyncFailure(f"donor ledger entry {sequence} has an invalid client signature")
        return envelope

    def _drop_admitted_suffix(self, sequence: int, tx_id: str, result: RecoveryResult) -> None:
        """Roll back the local suffix from ``sequence`` (none past the head),
        which is not the donor's ``tx_id``: it must be admitted-only.

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
                    f"local {local_tx} vs donor {tx_id} "
                    f"with executed entries in the divergent suffix"
                )
        result.truncated += cell.ledger.truncate(sequence - 1)


def _basis_of(snapshot: DataSnapshot) -> SnapshotBasis:
    """What a resync request or bundle states of ``snapshot``."""
    return SnapshotBasis(
        cycle=snapshot.cycle, last_sequence=snapshot.last_sequence, fingerprint=snapshot.fingerprint
    )
