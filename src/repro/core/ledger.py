"""The mutex-protected transaction ledger of a cell.

Section V-A requires "a mutex-based storage (i.e., one that does not permit
simultaneous writing operations)" so that conflicting transactions are
serialized in arrival order.  Inside the discrete-event simulation a cell's
handler callbacks are already serialized, but the *protocol-level* mutual
exclusion still matters: transaction admission (the ordering point) must be
atomic with respect to concurrently arriving transactions that are waiting
on the ledger's admission lock, and the ledger keeps the per-cycle segments
auditors later replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from ..crypto.fingerprint import canonical_bytes
from ..crypto.hashing import fast_hash
from ..messages.envelope import Envelope
from ..messages.membership import EntrySummary, LedgerRecord, SyncEntry
from ..sim.environment import Clock
from ..sim.resources import Resource


class LedgerError(Exception):
    """Raised for invalid ledger operations."""


@dataclass
class LedgerEntry:
    """One admitted transaction."""

    sequence: int
    tx_id: str
    cycle: int
    admitted_at: float
    envelope: Envelope
    #: Filled in after execution.
    status: str = "admitted"          # admitted | executed | rejected
    result: Any = None
    error: Optional[str] = None
    fingerprint: Optional[bytes] = None
    contract: Optional[str] = None
    #: True if this transaction arrived via the on-chain contingency channel.
    contingency: bool = False

    def record(self) -> EntrySummary:
        """The entry without its envelope, as resync bundles carry it."""
        return EntrySummary(
            sequence=self.sequence,
            tx_id=self.tx_id,
            cycle=self.cycle,
            admitted_at=self.admitted_at,
            status=self.status,
            contract=self.contract,
            error=self.error,
            contingency=self.contingency,
            fingerprint=self.fingerprint,
        )

    def summary(self) -> dict[str, Any]:
        """Compact dict used in audits, resync bundles, and logs."""
        return self.record().to_wire()


class TransactionLedger:
    """Ordered, mutex-protected storage of all transactions seen by a cell."""

    def __init__(self, env: Clock, cell_id: str) -> None:
        self.env = env
        self.cell_id = cell_id
        self._entries: list[LedgerEntry] = []
        self._by_tx_id: dict[str, LedgerEntry] = {}
        #: The admission mutex (capacity-1 resource): the "mutex-based
        #: storage" of Section V-A.
        self.mutex = Resource(env, capacity=1, name=f"{cell_id}-ledger-mutex")

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self._entries)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, envelope: Envelope, cycle: int, contingency: bool = False) -> LedgerEntry:
        """Append a transaction in arrival order (caller holds the mutex).

        Duplicate transaction ids are rejected, which is what stops an
        identical transaction submitted through two different cells from
        being executed twice.
        """
        tx_id = envelope.payload.hash_hex()
        if tx_id in self._by_tx_id:
            raise LedgerError(f"transaction {tx_id} is already in the ledger")
        entry = LedgerEntry(
            sequence=len(self._entries),
            tx_id=tx_id,
            cycle=cycle,
            admitted_at=self.env.now,
            envelope=envelope,
            contingency=contingency,
        )
        self._entries.append(entry)
        self._by_tx_id[tx_id] = entry
        return entry

    def entry_at(self, sequence: int) -> LedgerEntry:
        """Fetch the ledger entry with the given sequence number."""
        if not 0 <= sequence < len(self._entries):
            raise LedgerError(f"no ledger entry with sequence {sequence}")
        return self._entries[sequence]

    def contains(self, tx_id: str) -> bool:
        """Whether the transaction id has been admitted."""
        return tx_id in self._by_tx_id

    def get(self, tx_id: str) -> LedgerEntry:
        """Fetch the ledger entry for ``tx_id``."""
        try:
            return self._by_tx_id[tx_id]
        except KeyError:
            raise LedgerError(f"unknown transaction {tx_id}") from None

    # ------------------------------------------------------------------
    # Execution bookkeeping
    # ------------------------------------------------------------------
    def mark_executed(
        self, tx_id: str, contract: str, result: Any, fingerprint: bytes
    ) -> LedgerEntry:
        """Record a successful execution."""
        entry = self.get(tx_id)
        entry.status = "executed"
        entry.contract = contract
        entry.result = result
        entry.fingerprint = fingerprint
        return entry

    def mark_rejected(self, tx_id: str, contract: Optional[str], error: str) -> LedgerEntry:
        """Record a failed/reverted execution."""
        entry = self.get(tx_id)
        entry.status = "rejected"
        entry.contract = contract
        entry.error = error
        return entry

    # ------------------------------------------------------------------
    # Audit support
    # ------------------------------------------------------------------
    def cycle_execution_fingerprint(self, cycle: int) -> str:
        """One digest over everything execution decided for ``cycle``.

        Covers every entry of the cycle — transaction id, status, target
        contract, result, and error — *sorted by transaction id*, i.e. the
        same schedule-independent material the per-transaction execution
        fingerprints exchanged in confirmations cover.  Two cells (or two
        configurations of the same cell — serial vs. lane-parallel,
        batched vs. per-transaction) executed the cycle identically iff
        these digests match and their end-of-cycle snapshot fingerprints
        match.  Deliberately excluded: admission order and timestamps
        (arrival races differ per cell) and the intermediate per-entry
        store fingerprints (which depend on how non-conflicting
        transactions happened to interleave, not on what they computed).
        """
        items = sorted(
            (
                {
                    "tx_id": entry.tx_id,
                    "status": entry.status,
                    "contract": entry.contract,
                    "result": entry.result,
                    "error": entry.error,
                }
                for entry in self._entries
                if entry.cycle == cycle
            ),
            key=lambda item: item["tx_id"],
        )
        return "0x" + fast_hash(canonical_bytes(items)).hex()

    def execution_fingerprints_through(self, last_cycle: int) -> list[str]:
        """Per-cycle execution fingerprints for cycles ``0..last_cycle``.

        The ordered list a sharded deployment chains into its
        deployment-level *shard digest* (:mod:`repro.core.sharding`):
        one schedule-independent digest per report cycle, covering every
        transaction outcome of the cycle.
        """
        if last_cycle < 0:
            raise LedgerError("fingerprints need at least cycle 0")
        return [self.cycle_execution_fingerprint(cycle) for cycle in range(last_cycle + 1)]

    def executed_for_cycle(self, cycle: int) -> list[LedgerEntry]:
        """Successfully executed entries of ``cycle`` (the replay set)."""
        return [
            entry
            for entry in self._entries
            if entry.cycle == cycle and entry.status == "executed"
        ]

    def segment(self, first_cycle: int, last_cycle: int) -> list[LedgerRecord]:
        """Export of all entries in a cycle range (inclusive), for an audit download."""
        return [
            LedgerRecord(entry.record(), entry.envelope.to_wire())
            for entry in self._entries
            if first_cycle <= entry.cycle <= last_cycle
        ]

    # ------------------------------------------------------------------
    # Resync support (crash recovery, Section V)
    # ------------------------------------------------------------------
    def sync_segment(self, since_sequence: int) -> list[SyncEntry]:
        """Export of every entry from ``since_sequence`` on, for a resync bundle.

        This is what a donor cell ships to a recovering peer: the summary
        (including the per-entry execution fingerprint), the signed client
        envelope, and the recorded result, so the recovering cell can both
        backfill its ledger and check its own replay entry by entry.
        """
        return [
            SyncEntry(entry.record(), entry.envelope.to_wire(), entry.result)
            for entry in self._entries[max(0, since_sequence):]
        ]

    def backfill(self, envelope: Envelope, summary: EntrySummary, result: Any) -> LedgerEntry:
        """Install a donor-provided entry whose effects a snapshot already covers.

        Used during resync for entries at or below the donor snapshot's
        ``last_sequence``: the restored state already reflects them, so they
        are recorded with the donor's outcome instead of being re-executed.
        The donor's sequence number must be exactly the next local sequence —
        anything else means the ledgers diverged and recovery must abort.
        """
        if summary.sequence != len(self._entries):
            raise LedgerError(
                f"backfill sequence {summary.sequence} does not follow local head "
                f"{len(self._entries)}"
            )
        tx_id = envelope.payload.hash_hex()
        if tx_id != summary.tx_id:
            raise LedgerError(f"backfill envelope does not hash to tx {summary.tx_id}")
        if tx_id in self._by_tx_id:
            raise LedgerError(f"transaction {tx_id} is already in the ledger")
        entry = LedgerEntry(
            sequence=summary.sequence,
            tx_id=tx_id,
            cycle=summary.cycle,
            admitted_at=summary.admitted_at,
            envelope=envelope,
            status=summary.status,
            result=result,
            error=summary.error,
            fingerprint=summary.fingerprint,
            contract=summary.contract,
            contingency=summary.contingency,
        )
        self._entries.append(entry)
        self._by_tx_id[tx_id] = entry
        return entry

    def truncate(self, last_sequence: int) -> int:
        """Drop every entry with a sequence above ``last_sequence``.

        Used during resync when the donor's snapshot is *older* than this
        cell's ledger head: restoring the snapshot rolls contract state
        back to the snapshot boundary, so the local entries past it must be
        dropped and re-executed from the donor's tail to keep ledger and
        state consistent.  Returns how many entries were removed.
        """
        keep = max(0, last_sequence + 1)
        removed = self._entries[keep:]
        if not removed:
            return 0
        del self._entries[keep:]
        for entry in removed:
            self._by_tx_id.pop(entry.tx_id, None)
        return len(removed)

    def sync_digest(self) -> list[tuple[int, str, str, Any]]:
        """Timing-independent view of the ledger for cross-cell comparison.

        Two cells are in sync exactly when their digests are equal: same
        entries, same order, same outcomes, same post-execution
        fingerprints.  Admission timestamps are deliberately left out — a
        recovered cell backfills entries long after its peers admitted
        them.
        """
        return [
            (
                entry.sequence,
                entry.tx_id,
                entry.status,
                "0x" + entry.fingerprint.hex() if entry.fingerprint is not None else None,
            )
            for entry in self._entries
        ]

    def statistics(self) -> dict[str, int]:
        """Counts by status."""
        counts = {"admitted": 0, "executed": 0, "rejected": 0}
        for entry in self._entries:
            counts[entry.status] = counts.get(entry.status, 0) + 1
        counts["total"] = len(self._entries)
        return counts
