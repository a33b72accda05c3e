"""The stages behind a cell's ingress (Fig. 6 and Fig. 7 of the paper).

:class:`~repro.core.cell.BlockumulusCell` is the *ingress* stage: it
authenticates a message, parses its body and calls the handler its route
names (:data:`~repro.core.routes.ROUTES`), here or on the ingress itself.
Behind it each step of the paper's pipeline is one object that owns its
state, and reaches the others only through their public methods:

* :class:`ExecuteStage` — admission under the ledger mutex, the report-stage
  gate, the CPU workers and the execution lanes;
* :class:`ServiceStage` — a transaction this cell services end to end:
  admit → forward → execute → confirmations → aggregated receipt;
* :class:`PeerStage` — a transaction a peer forwarded: admit → execute →
  confirm;
* :class:`CycleStage` — the report cycle: snapshot, anchor, contingencies;
* :class:`ReadStage` — the read-only requests.

The recovery stage, :class:`~repro.core.recovery.RecoveryStage`, lives
with the resync it runs: both halves of ``CELL_SYNC`` and the gate a
resync holds over the ingress and the peer and cycle stages.

Each stage gets a :class:`~repro.sim.environment.Clock` and takes time from
nothing else; the cell it serves supplies identity, shared protocol state
(ledger, contracts, consensus, fault plan, metrics) and the one way out,
:meth:`~repro.core.cell.BlockumulusCell.reply`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..crypto.keys import Address, PrivateKey
from ..ethchain.contracts.snapshot_registry import SnapshotRegistry
from ..ethchain.provider import Web3Provider
from ..messages import requests
from ..messages.batch import BatchError, ForwardedTransactions
from ..messages.envelope import Envelope
from ..messages.opcodes import Opcode
from ..sim.environment import Clock
from ..sim.events import Event
from ..sim.resources import Resource
from .executor import ExecutionOutcome
from .lanes import LaneScheduler
from .ledger import LedgerEntry, LedgerError
from .receipts import CompactReceipt, Confirmation, ConfirmationBatch, LinkConfirmation
from .replies import LedgerResponse, QueryResult, ReceiptReply, SnapshotResponse, SubscriptionAck
from .routes import DROP_FORWARD
from .subscription import SubscriptionError

if TYPE_CHECKING:
    from .cell import BlockumulusCell


def _flip_fingerprint(fingerprint_hex: str) -> str:
    """The bitwise complement of a ``0x``-hex fingerprint.

    What an *equivocating* cell signs on one of its two channels: a
    well-formed fingerprint of the right width that deterministically
    differs from the honest one (unlike the zeroed fingerprint of
    ``tamper_fingerprint``, which is self-consistently wrong everywhere).
    """
    honest = bytes.fromhex(fingerprint_hex[2:])
    return "0x" + bytes(byte ^ 0xFF for byte in honest).hex()


# ----------------------------------------------------------------------
# Execute: admission, the report-stage gate, CPU and lanes
# ----------------------------------------------------------------------
class ExecuteStage:
    """Where every transaction is ordered and run, whoever brought it."""

    def __init__(self, cell: "BlockumulusCell", clock: Clock, execution_lanes: int) -> None:
        self.cell = cell
        self.clock = clock
        model = cell.service_model
        # Simulated hardware.
        self.cpu = Resource(clock, capacity=model.cpu_workers, name=f"{cell.node_name}-cpu")
        # The execution stage's one gate (repro.core.lanes): with lanes>1 at
        # most ``execution_lanes`` transactions run concurrently, never two
        # with conflicting access footprints; with one lane it plans nothing
        # and admits up to ``max_parallel_invocations`` at once.  Either way
        # waiters are granted by (cycle, signed timestamp, tx id), a rank
        # every replica computes alike.
        self.lanes = LaneScheduler(
            clock, execution_lanes, cell.contracts, name=f"{cell.node_name}-lanes",
            invocations=model.max_parallel_invocations,
        )
        # While the report stage fingerprints state, admissions queue on the event.
        self._paused = False
        self._resume: Event = clock.event()

    def pause_admission(self) -> None:
        """Hold new admissions: the report stage is about to fingerprint state."""
        self._paused = True

    def resume_admission(self) -> None:
        """Let the admissions held by :meth:`pause_admission` through."""
        self._paused = False
        resume, self._resume = self._resume, self.clock.event()
        if not resume.triggered:
            resume.succeed()

    def admit(
        self, envelope: Envelope, contingency: bool = False
    ) -> Generator[Event, Any, LedgerEntry]:
        """Admission: the ordering point, under the ledger mutex.

        Waits out a report stage in progress, so the entry lands in the
        cycle that follows the snapshot.  Raises :class:`LedgerError`
        (mutex released) when the transaction is already in the ledger.
        """
        cell = self.cell
        yield cell.ledger.mutex.request()
        try:
            if self._paused:
                yield self._resume
            return cell.ledger.admit(
                envelope, cell.consensus.cycle_of(self.clock.now), contingency
            )
        finally:
            cell.ledger.mutex.release()

    def run(self, entry: LedgerEntry) -> Generator[Event, Any, ExecutionOutcome]:
        """Execute an admitted entry and record its outcome in the ledger."""
        cell = self.cell
        # The transaction holds an execution lane for its whole invocation;
        # the gate guarantees no conflicting transaction is in flight with it.
        yield self.lanes.acquire(entry)
        journal = None
        try:
            yield self.clock.timeout(cell.service_model.invoke_overhead.sample(cell.rng))
            yield from self.cpu.use(cell.service_model.invoke_cpu)
            outcome = cell.executor.execute_safely(entry)
            journal = outcome.journal
        finally:
            self.lanes.release(entry, journal)
        if cell.fault.tamper_state and outcome.ok:
            # A compromised cell silently corrupts its contract data; its
            # fingerprints now diverge from the honest cells.
            contract = cell.contracts.get(outcome.contract)
            contract.store.put("__tampered__", self.clock.now)
            cell.fault.record("tamper_state", contract=outcome.contract)
            outcome = dataclasses.replace(outcome, fingerprint=contract.fingerprint())
        if outcome.ok:
            cell.ledger.mark_executed(
                outcome.tx_id, outcome.contract, outcome.result, outcome.fingerprint
            )
        else:
            cell.ledger.mark_rejected(outcome.tx_id, outcome.contract, outcome.error or "")
        return outcome


# ----------------------------------------------------------------------
# Service: a transaction this cell services (Fig. 7 steps 2-4)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _ServiceResult:
    """What the shared service pipeline learned about one transaction.

    Produced by :meth:`ServiceStage.pipeline` for both the client-facing
    ``TX_SUBMIT`` path and the cross-shard gateway path, which differ only
    in how they report this result back.
    """

    entry: Optional[LedgerEntry] = None
    outcome: Optional[ExecutionOutcome] = None
    #: The receipt, as the reply to the transaction's signer carries it.
    receipt: Optional[CompactReceipt] = None
    missing: list[Address] = dataclasses.field(default_factory=list)
    mismatched: list[Address] = dataclasses.field(default_factory=list)
    rejected: list[Confirmation] = dataclasses.field(default_factory=list)
    admit_error: Optional[str] = None
    aborted: bool = False

    @property
    def confirmed(self) -> bool:
        """True when the transaction earned a full aggregated receipt."""
        return self.receipt is not None

    def failure_reason(self) -> str:
        """Human-readable reason the transaction reverted."""
        if self.admit_error is not None:
            return self.admit_error
        if self.outcome is not None and not self.outcome.ok:
            return self.outcome.error or "execution rejected"
        if self.rejected:
            return self.rejected[0].error or "execution rejected by a consortium cell"
        if self.missing:
            return "forwarding deadline missed by one or more cells"
        if self.mismatched:
            return "fingerprint mismatch across consortium cells"
        return "transaction reverted"


class _PendingTransaction:
    """Book-keeping for a transaction this cell is servicing."""

    def __init__(self, clock: Clock, tx_id: str, expected_cells: set[Address]) -> None:
        self.tx_id = tx_id
        self.expected_cells = set(expected_cells)
        self.confirmations: dict[Address, Confirmation] = {}
        self.all_received: Event = clock.event()

    def add(self, confirmation: Confirmation) -> None:
        """Record one confirmation, firing the completion event if done."""
        if confirmation.cell not in self.expected_cells:
            return
        self.confirmations[confirmation.cell] = confirmation
        if len(self.confirmations) >= len(self.expected_cells) and not self.all_received.triggered:
            self.all_received.succeed(self.confirmations)


class ServiceStage:
    """Admit, replicate and aggregate the transactions this cell services."""

    def __init__(self, cell: "BlockumulusCell", clock: Clock, execute: ExecuteStage) -> None:
        self.cell = cell
        self.clock = clock
        self.execute = execute
        #: Transactions awaiting their peers' confirmations, by tx id.
        self._pending: dict[str, _PendingTransaction] = {}

    def _serve_submission(
        self, src_node: str, envelope: Envelope, call: requests.TransactionCall
    ) -> Generator[Event, Any, None]:
        """Service an authenticated ``TX_SUBMIT`` and answer the client."""
        cell = self.cell
        if cell.fault.is_censored(envelope):
            # A censoring cell silently drops the transaction (Section V-B).
            cell.metrics.increment(f"{cell.node_name}/censored")
            return
        try:
            cell.subscriptions.check_access(envelope.sender)
        except SubscriptionError as exc:
            cell.refuse(src_node, envelope, str(exc))
            return

        result = yield from self.pipeline(envelope)
        if result.aborted:
            # The cell crashed mid-service; it stays silent.
            return
        if result.admit_error is not None:
            cell.refuse(src_node, envelope, result.admit_error)
            return

        cell.subscriptions.record_transaction(envelope.sender)

        if result.receipt is not None:
            cell.reply(
                src_node, envelope, Opcode.TX_RECEIPT, ReceiptReply(result.receipt).to_data()
            )
            return

        # Failure path: the transaction reverts from the client's viewpoint.
        if result.mismatched:
            cell.metrics.increment(f"{cell.node_name}/fingerprint_mismatches")
        cell.refuse(
            src_node,
            envelope,
            result.failure_reason(),
            tx_id=result.entry.tx_id,
            missing_cells=tuple(address.hex() for address in result.missing),
            mismatched_cells=tuple(address.hex() for address in result.mismatched),
        )

    def pipeline(self, envelope: Envelope) -> Generator[Event, Any, _ServiceResult]:
        """Admit, replicate, and aggregate one transaction (Fig. 7 steps 2-4).

        The shared core of transaction servicing: admission under the
        ledger mutex, forwarding to every active peer, local execution,
        confirmation collection against the forwarding deadline, and
        fingerprint aggregation into a multi-signature receipt.  Used by
        the client-facing ``TX_SUBMIT`` path and by the cross-shard
        gateway (which services the inner transactions of 2PC phases and
        voucher legs); only the reply that reports the returned
        :class:`_ServiceResult` differs.
        """
        cell, clock, execute = self.cell, self.clock, self.execute
        try:
            entry = yield from execute.admit(envelope)
        except LedgerError as exc:
            return _ServiceResult(admit_error=str(exc))
        active_peers = cell.active_peer_nodes()
        pending = _PendingTransaction(clock, entry.tx_id, set(active_peers))
        self._pending[entry.tx_id] = pending
        forwarded = yield from self._forward_to_peers(envelope, active_peers)
        if not forwarded:
            return _ServiceResult(entry=entry, aborted=True)

        # Execute locally while peers work in parallel.
        outcome = yield from execute.run(entry)

        # Wait for all confirmations or the forwarding deadline.  A peer runs
        # this transaction only after everything ranked before it, so its
        # deadline starts once nothing ranked before it is queued here.
        if active_peers:
            queue_ahead = execute.lanes.queue_ahead(entry)
            if queue_ahead is not None:
                yield clock.any_of([pending.all_received, queue_ahead])
            if queue_ahead is None or not pending.all_received.triggered:
                deadline = clock.timeout(cell.invariants.forwarding_deadline)
                yield clock.any_of([pending.all_received, deadline])
        self._pending.pop(entry.tx_id, None)

        # The service cell checks every returned fingerprint (Fig. 7 step 4);
        # the paper attributes most of this step's cost to re-running the
        # external fingerprinting tool per confirmation.
        if active_peers:
            yield clock.timeout(
                cell.service_model.aggregate_overhead_per_cell * len(active_peers)
            )
        return self._aggregate(entry, outcome, pending, active_peers)

    def _forward_to_peers(
        self, envelope: Envelope, active_peers: dict[Address, str]
    ) -> Generator[Event, Any, bool]:
        """Forward an admitted transaction; False if the cell crashed midway.

        Targets are every active consortium peer — plus any rejoiner this
        cell agreed to readmit whose commit is still in flight.  Without
        the provisional targets, everything admitted between the rejoin
        ack and the readmit commit would silently never reach the
        rejoiner (it is not in the active view yet).  Provisional
        targets buffer the forward mid-resync and are *not* part of the
        confirmation quorum, so they never gate the receipt.
        """
        cell = self.cell
        forward_targets = dict(active_peers)
        for address, node in cell.membership.provisional_forward_targets().items():
            forward_targets.setdefault(address, node)
        for peer_address, peer_node in forward_targets.items():
            yield from self.execute.cpu.use(cell.service_model.forward_cpu_per_cell)
            if cell.fault.crashed:
                return False
            cell.batcher.queue_forward(peer_node, peer_address, envelope)
        return True

    def _aggregate(
        self,
        entry: LedgerEntry,
        outcome: ExecutionOutcome,
        pending: _PendingTransaction,
        active_peers: dict[Address, str],
    ) -> _ServiceResult:
        """Judge the collected confirmations; sign the receipt if all agree.

        This is the one judge of co-signers: a peer's confirmation joins the
        receipt only if it states what this cell signs.  The receipt is built
        in the form the reply that answers now carries it.
        """
        cell = self.cell
        missing = [address for address in active_peers if address not in pending.confirmations]
        mismatched: list[Address] = []
        rejected: list[Confirmation] = []
        expected_fingerprint = outcome.execution_fingerprint_hex()
        for address, confirmation in pending.confirmations.items():
            cell.consensus.record_success(address)
            if confirmation.status != "executed":
                rejected.append(confirmation)
            elif (
                confirmation.fingerprint_hex != expected_fingerprint
                or confirmation.contract != outcome.contract
                or confirmation.error is not None
            ):
                # Not the statement this cell signs: a receipt cannot carry it.
                mismatched.append(address)
        for address in missing:
            newly_excluded = cell.consensus.record_miss(address, entry.cycle)
            if newly_excluded:
                cell.metrics.increment(f"{cell.node_name}/cells_excluded")
                # Spread the observation: open a consortium-wide vote so the
                # other cells stop forwarding to the dead peer as well.
                cell.membership.propose_exclusion(
                    address, entry.cycle, reason="forwarding deadline missed"
                )

        receipt: Optional[CompactReceipt] = None
        if outcome.ok and not missing and not mismatched and not rejected:
            own_confirmation = Confirmation.create(
                cell.signer,
                tx_id=entry.tx_id,
                contract=outcome.contract,
                fingerprint_hex=expected_fingerprint,
                status="executed",
                timestamp=self.clock.now,
            )
            receipt = CompactReceipt.of(
                own_confirmation,
                pending.confirmations.values(),
                entry.envelope,
                method=outcome.method,
                result=outcome.result,
                cycle=entry.cycle,
                scheme=cell.signer.scheme,
                moment=self.clock.now,
            )
        return _ServiceResult(
            entry=entry,
            outcome=outcome,
            receipt=receipt,
            missing=missing,
            mismatched=mismatched,
            rejected=rejected,
        )

    def _accept_confirmations(
        self, src_node: str, envelope: Envelope, batch: ConfirmationBatch
    ) -> None:
        """Route the confirmations of a ``TX_CONFIRM``.

        Each is rebuilt from this cell's own ledger entry and the envelope,
        so it verifies only if the envelope's sender signed it; one for a
        transaction this cell never admitted is refused like a bad signature.
        """
        cell = self.cell
        for item in batch.confirmations:
            try:
                entry = cell.ledger.get(item.tx_id)
            except LedgerError:
                cell.refuse_unauthenticated(src_node, envelope)
                continue
            confirmation = item.confirmation(envelope.sender, envelope.scheme, entry.envelope)
            if not confirmation.verify():
                cell.refuse_unauthenticated(src_node, envelope)
                continue
            pending = self._pending.get(item.tx_id)
            if pending is not None:
                pending.add(confirmation)


# ----------------------------------------------------------------------
# Peer: transactions forwarded by other cells (Fig. 7 step 3)
# ----------------------------------------------------------------------
class PeerStage:
    """Admit, execute and confirm the transactions other cells service."""

    def __init__(self, cell: "BlockumulusCell", clock: Clock, execute: ExecuteStage) -> None:
        self.cell = cell
        self.clock = clock
        self.execute = execute

    def _serve_forwards(
        self, src_node: str, forward: Envelope, body: ForwardedTransactions
    ) -> None:
        """Fan out the transactions of one authenticated ``TX_FORWARD``.

        The authentication overhead was paid once for the message — this is
        where the batched pipeline saves cell time on top of network messages.
        Each client envelope is read under the forwarder, to which its client
        addressed it (one relayed from another cell fails its signature
        check), and runs in its own process (parallel up to the service
        model's invocation limit).
        """
        cell = self.cell
        try:
            client_envelopes = body.envelopes(forward.sender)
        except BatchError:
            cell.metrics.increment(f"{cell.node_name}/{DROP_FORWARD.malformed_counter}")
            return
        for client_envelope in client_envelopes:
            self.clock.process(self._handle_forwarded(src_node, forward.sender, client_envelope))

    def _handle_forwarded(
        self, src_node: str, origin: Address, client_envelope: Envelope
    ) -> Generator[Event, Any, None]:
        """Admit, execute, and confirm one forwarded client transaction."""
        cell = self.cell
        if cell.fault.crashed:
            # The cell crashed after the forward (or its batch) was already
            # delivered: drop the work exactly as per-transaction traffic
            # arriving after the crash would have been dropped.
            return
        if cell.recovery.parks(self._handle_forwarded, src_node, origin, client_envelope):
            return
        if not client_envelope.verify():
            self._confirm(src_node, origin, client_envelope, client_envelope.payload.hash_hex(),
                          contract="", fingerprint_hex="0x" + "00" * 32,
                          status="rejected", error="client signature invalid")
            return
        if cell.fault.extra_confirm_delay:
            cell.fault.record("delay", seconds=cell.fault.extra_confirm_delay)
            yield self.clock.timeout(cell.fault.extra_confirm_delay)
        if cell.fault.crashed:
            # Crashed while the transaction was waiting in this cell: it is
            # never admitted, exactly as if the envelope had been dropped.
            return

        try:
            entry = yield from self.execute.admit(client_envelope)
        except LedgerError:
            # Already admitted: a duplicate submission through another
            # cell, or a forward parked during a resync whose entry the
            # post-readmit backfill admitted first.
            duplicate = cell.ledger.get(client_envelope.payload.hash_hex())
            yield from self._confirm_duplicate(src_node, origin, duplicate)
            return

        outcome = yield from self.execute.run(entry)
        self._confirm(
            src_node,
            origin,
            client_envelope,
            outcome.tx_id,
            outcome.contract,
            outcome.execution_fingerprint_hex(),
            status=outcome.status,
            error=outcome.error,
        )

    def _confirm_duplicate(
        self, src_node: str, origin: Address, duplicate: LedgerEntry
    ) -> Generator[Event, Any, None]:
        """Confirm a forward whose transaction this cell had already admitted.

        Reports the recorded outcome instead of re-executing — but an
        entry that is merely *admitted* has an execution still in flight
        (or about to be replayed); calling it rejected would manufacture
        a spurious failed confirmation.  Wait it out, bounded by the
        forwarding deadline the origin is under anyway.
        """
        clock = self.clock
        wait_deadline = clock.now + self.cell.invariants.forwarding_deadline
        while duplicate.status == "admitted" and clock.now < wait_deadline:
            yield clock.timeout(0.01)
        if duplicate.status == "executed":
            # The origin compares the order-independent *execution*
            # fingerprint, not the stored post-execution state
            # fingerprint — recompute it from the recorded outcome.
            recorded = ExecutionOutcome(
                tx_id=duplicate.tx_id,
                contract=duplicate.contract or "",
                method=duplicate.envelope.data.get("method", ""),
                status="executed",
                result=duplicate.result,
                error=duplicate.error,
                fingerprint=duplicate.fingerprint or b"",
            )
            fingerprint_hex, status, error = (
                recorded.execution_fingerprint_hex(), "executed", duplicate.error
            )
        else:
            fingerprint_hex, status, error = (
                "0x" + "00" * 32, "rejected", duplicate.error or "duplicate transaction"
            )
        self._confirm(
            src_node, origin, duplicate.envelope, duplicate.tx_id, duplicate.contract or "",
            fingerprint_hex, status=status, error=error,
        )

    def _confirm(
        self,
        dst_node: str,
        origin: Address,
        client_envelope: Envelope,
        tx_id: str,
        contract: str,
        fingerprint_hex: str,
        status: str,
        error: Optional[str] = None,
    ) -> None:
        """Send a signed confirmation of ``client_envelope`` to the service cell at ``origin``.

        A cell that crashed between executing the transaction and this point
        sends nothing (the batch dispatcher applies the same gate at flush time).
        """
        cell = self.cell
        if cell.fault.crashed:
            return
        if cell.fault.equivocate and status == "executed":
            # Equivocation: sign a *different* execution fingerprint for
            # roughly half the service cells (split deterministically by
            # the origin address), so two honest peers end up holding
            # contradictory signed confirmations for the same execution.
            if int(origin.hex()[-1], 16) % 2 == 0:
                fingerprint_hex = _flip_fingerprint(fingerprint_hex)
                cell.fault.record(
                    "equivocate", channel="confirmation", tx_id=tx_id, to=origin.hex()
                )
        confirmation = Confirmation.create(
            cell.signer,
            tx_id=tx_id,
            contract=contract,
            fingerprint_hex=fingerprint_hex,
            status=status,
            timestamp=self.clock.now,
            error=error,
        )
        # Routing at the receiver is by tx_id, so no reply_to is needed.
        cell.batcher.queue_confirmation(
            dst_node, origin, LinkConfirmation.of(confirmation, client_envelope)
        )


# ----------------------------------------------------------------------
# Cycle: the report-cycle lifecycle (Fig. 6)
# ----------------------------------------------------------------------
class CycleStage:
    """Snapshot, anchor and run contingencies at every report deadline."""

    def __init__(
        self,
        cell: "BlockumulusCell",
        clock: Clock,
        execute: ExecuteStage,
        eth: Web3Provider,
        eth_key: PrivateKey,
        registry_contract: SnapshotRegistry,
        auto_report: bool,
    ) -> None:
        self.cell = cell
        self.clock = clock
        self.execute = execute
        self.eth = eth
        self.eth_key = eth_key
        self.registry_contract = registry_contract
        self.auto_report = auto_report
        #: On-chain contingency transactions handled so far (run or skipped).
        self.contingencies_executed = 0
        self._reports: list[dict[str, Any]] = []

    @property
    def reports_submitted(self) -> list[dict[str, Any]]:
        """Snapshot reports this cell has anchored on Ethereum."""
        return list(self._reports)

    def start(self) -> None:
        """Start the report-cycle process."""
        self.clock.process(self._lifecycle())

    def _lifecycle(self) -> Generator[Event, Any, None]:
        cell, clock = self.cell, self.clock
        while True:
            next_deadline = cell.consensus.next_deadline(clock.now)
            yield clock.timeout(max(0.0, next_deadline - clock.now))
            if cell.fault.crashed or cell.recovery.recovering:
                continue
            completed_cycle = cell.consensus.cycle_of(clock.now) - 1
            if completed_cycle < 0:
                continue
            yield from self._report_stage(completed_cycle)

    def _report_stage(self, completed_cycle: int) -> Generator[Event, Any, None]:
        cell, clock = self.cell, self.clock
        # Enter the report stage: new executions queue until the snapshot
        # fingerprint is taken (Section III-D2).
        self.execute.pause_admission()
        yield clock.timeout(cell.service_model.auth_overhead.sample(cell.rng))
        entries = [entry for entry in cell.ledger if entry.cycle <= completed_cycle]
        first_sequence = min((entry.sequence for entry in entries), default=0)
        last_sequence = max((entry.sequence for entry in entries), default=-1)
        snapshot = cell.snapshots.take_snapshot(
            cycle=completed_cycle,
            timestamp=clock.now,
            first_sequence=first_sequence,
            last_sequence=last_sequence,
        )
        # Execution resumes as soon as the fingerprint exists; the on-chain
        # submission continues in the background.
        self.execute.resume_admission()
        cell.metrics.increment(f"{cell.node_name}/snapshots_taken")

        if self.auto_report:
            fingerprint_hex = snapshot.fingerprint_hex()
            if cell.fault.tamper_fingerprint:
                fingerprint_hex = "0x" + bytes(32).hex()
                cell.fault.record("tamper_fingerprint", cycle=completed_cycle)
            elif cell.fault.equivocate:
                # The cell *anchors* one signed fingerprint while serving
                # auditors the honest snapshot behind another — the same
                # logical report, two payloads, both apparently valid.
                fingerprint_hex = _flip_fingerprint(fingerprint_hex)
                cell.fault.record("equivocate", channel="anchor", cycle=completed_cycle)
            # The on-chain submission runs in the background: execution has
            # already resumed, and waiting for block inclusion here would
            # make the cell miss the next report deadline on slow chains.
            clock.process(self._submit_report(completed_cycle, fingerprint_hex))

        # Execute contingency transactions submitted directly on-chain.
        yield from self._execute_contingencies()

    def _submit_report(self, cycle: int, fingerprint_hex: str) -> Generator[Event, Any, None]:
        cell = self.cell
        receipt_event = self.eth.transact_and_wait(
            self.eth_key,
            self.registry_contract.address,
            "report",
            {"cycle": cycle, "fingerprint": fingerprint_hex},
        )
        receipt = yield receipt_event
        self._reports.append(
            {
                "cycle": cycle,
                "fingerprint": fingerprint_hex,
                "tx_hash": receipt.tx_hash,
                "gas_used": receipt.gas_used,
                "success": receipt.success,
                "reported_at": self.clock.now,
            }
        )
        cell.metrics.increment(f"{cell.node_name}/reports_submitted")
        cell.metrics.series(f"{cell.node_name}/report_gas").add(receipt.gas_used)

    def _execute_contingencies(self) -> Generator[Event, Any, None]:
        cell = self.cell
        contingencies = self.eth.call(self.registry_contract.address, "all_contingencies")
        for wire in contingencies[self.contingencies_executed:]:
            try:
                envelope = Envelope.from_wire(wire)
            except Exception:  # noqa: BLE001 - a malformed contingency is skipped
                self.contingencies_executed += 1
                continue
            self.contingencies_executed += 1
            if not envelope.verify():
                continue
            if cell.ledger.contains(envelope.payload.hash_hex()):
                continue
            try:
                entry = yield from self.execute.admit(envelope, contingency=True)
            except LedgerError:
                continue
            yield from self.execute.run(entry)
            cell.metrics.increment(f"{cell.node_name}/contingencies_executed")


# ----------------------------------------------------------------------
# Read: subscriptions, queries, liveness and auditors
# ----------------------------------------------------------------------
class ReadStage:
    """The requests a cell answers from its state without changing it."""

    def __init__(self, cell: "BlockumulusCell", clock: Clock) -> None:
        self.cell = cell
        self.clock = clock

    def _serve_subscription(
        self, src_node: str, envelope: Envelope, request: requests.SubscriptionRequest
    ) -> None:
        cell = self.cell
        subscription = cell.subscriptions.subscribe(envelope.sender, self.clock.now)
        ack = SubscriptionAck(
            cell.address, subscription.opened_at, subscription.policy.price_per_mbyte
        )
        cell.reply(src_node, envelope, Opcode.SUBSCRIBE_ACK, ack.to_data())

    def _serve_query(self, src_node: str, envelope: Envelope, query: requests.StateQuery) -> None:
        cell = self.cell
        try:
            result = cell.executor.query(query.contract, query.view, query.args)
            cell.reply(src_node, envelope, Opcode.QUERY_RESULT, QueryResult(result).to_data())
        except Exception as exc:  # noqa: BLE001 - report query errors to the client
            cell.refuse(src_node, envelope, str(exc))

    def _serve_ping(self, src_node: str, envelope: Envelope, body: None) -> None:
        cell = self.cell
        cell.reply(src_node, envelope, Opcode.PONG, requests.Pong(cell.node_name).to_data())

    def _serve_snapshot_request(
        self, src_node: str, envelope: Envelope, request: requests.SnapshotRequest
    ) -> None:
        cell = self.cell
        cycle = request.cycle if request.cycle is not None else cell.snapshots.latest_cycle
        if cycle is None or not cell.snapshots.has(cycle):
            cell.refuse(src_node, envelope, f"no snapshot for cycle {cycle}")
            return
        response = SnapshotResponse(cell.snapshots.get(cycle))
        cell.reply(src_node, envelope, Opcode.SNAPSHOT_RESPONSE, response.to_data())

    def _serve_ledger_request(
        self, src_node: str, envelope: Envelope, request: requests.LedgerRequest
    ) -> None:
        cell = self.cell
        first, last = request.first_cycle, request.last_cycle
        response = LedgerResponse(first, last, tuple(cell.ledger.segment(first, last)))
        cell.reply(src_node, envelope, Opcode.LEDGER_RESPONSE, response.to_data())
