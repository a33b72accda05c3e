"""Transaction execution against a cell's deployed bContracts.

This is the invocation half of the bContract interface of Sections III-C7
and III-D3: the executor is the deterministic part of transaction
processing — given an
admitted ledger entry it locates the target bContract, builds the
invocation context (using only values that are identical on every cell —
the signed client payload and the ledger cycle), invokes the method, and
returns the result together with the contract's post-execution fingerprint.
The surrounding cell logic (timing, CPU accounting, forwarding,
confirmations) lives in :mod:`repro.core.cell`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..contracts.context import BContractError, InvocationContext
from ..contracts.registry import ContractRegistry
from ..contracts.state_store import AccessSet, MutationJournal
from ..contracts.system.cas import ContentAddressableStorage
from ..messages.requests import RequestError, named_call
from .ledger import LedgerEntry
from .receipts import called_contract, called_method, execution_fingerprint


@dataclass(frozen=True)
class ExecutionOutcome:
    """The result of executing one transaction on one cell."""

    tx_id: str
    contract: str
    method: str
    status: str                  # "executed" | "rejected"
    result: Any
    error: Optional[str]
    fingerprint: bytes
    #: The invocation's mutation journal (None when the call never reached
    #: a contract).  Excluded from both fingerprints and from equality:
    #: observed access is a per-cell diagnostic, not part of the cross-cell
    #: agreement.
    journal: Optional[MutationJournal] = field(default=None, compare=False, repr=False)

    @property
    def access(self) -> Optional[AccessSet]:
        """Observed store access of the invocation, frozen from the journal when read."""
        return None if self.journal is None else self.journal.access_set()

    @property
    def ok(self) -> bool:
        """True if the invocation committed."""
        return self.status == "executed"

    def fingerprint_hex(self) -> str:
        """0x-prefixed post-execution contract *state* fingerprint."""
        return "0x" + self.fingerprint.hex()

    def execution_fingerprint(self) -> bytes:
        """Order-independent fingerprint of this transaction's execution.

        Confirmations exchanged between cells compare this value: it covers
        the transaction id, the target contract/method, the status, and the
        result, so two cells agree iff the transaction had the same effect
        on both — regardless of how other concurrent transactions happened
        to interleave locally.  Whole-state fingerprints are compared at
        report-cycle boundaries through the anchored snapshots instead; this
        is what lets the stress test of Fig. 9/10 run 20,000 simultaneous
        transactions without spurious mismatches, matching the paper's
        observation of zero failures.

        It is :func:`~repro.core.receipts.execution_fingerprint` of them,
        which a client recomputes from its own request and the result its
        receipt carries.
        """
        return execution_fingerprint(
            self.tx_id, self.contract, self.method, self.status, self.result, self.error
        )

    def execution_fingerprint_hex(self) -> str:
        """0x-prefixed execution fingerprint."""
        return "0x" + self.execution_fingerprint().hex()


class TransactionExecutor:
    """Executes admitted transactions against a contract registry."""

    def __init__(self, cell_id: str, registry: ContractRegistry) -> None:
        self.cell_id = cell_id
        self.registry = registry
        #: Keys read by the most recent :meth:`query` (view read tracking).
        self.last_view_reads: frozenset[str] = frozenset()

    def _cas(self) -> Optional[ContentAddressableStorage]:
        name = ContentAddressableStorage.DEFAULT_NAME
        if self.registry.contains(name):
            contract = self.registry.get(name)
            if isinstance(contract, ContentAddressableStorage):
                return contract
        return None

    @staticmethod
    def parse_call(entry: LedgerEntry) -> tuple[str, str, dict[str, Any]]:
        """Extract (contract, method, args) from a TX_SUBMIT payload."""
        try:
            return named_call(entry.envelope.data, "transaction", "method")
        except RequestError as exc:
            raise BContractError(str(exc)) from exc

    def execute(self, entry: LedgerEntry) -> ExecutionOutcome:
        """Run the transaction in ``entry`` and return the outcome.

        Both success and contract-level rejection are normal outcomes (the
        rejection is reported back to the client and recorded in the
        ledger); only malformed envelopes raise.
        """
        contract_name, method, args = self.parse_call(entry)
        contract = self.registry.get(contract_name)
        context = InvocationContext(
            sender=entry.envelope.sender,
            tx_id=entry.tx_id,
            # The *signed* client timestamp is used so every cell passes an
            # identical value to the contract regardless of local clock.
            timestamp=entry.envelope.payload.timestamp,
            cell_id=self.cell_id,
            cycle=entry.cycle,
            cas=self._cas(),
            extra={"contingency": entry.contingency},
        )
        try:
            result = contract.invoke(context, method, args)
            status, error = "executed", None
        except BContractError as exc:
            result, status, error = None, "rejected", str(exc)
        return ExecutionOutcome(
            tx_id=entry.tx_id,
            contract=contract_name,
            method=method,
            status=status,
            result=result,
            error=error,
            fingerprint=contract.fingerprint(),
            journal=contract.last_journal,
        )

    def execute_safely(self, entry: LedgerEntry) -> ExecutionOutcome:
        """Like :meth:`execute`, but malformed calls reject instead of raising.

        Malformed payloads and unknown contracts revert rather than crash
        the executing cell; the client receives the reason in its TX_ERROR
        reply.  Shared by the cell's service and forwarded execution paths.
        """
        try:
            return self.execute(entry)
        except BContractError as exc:
            return ExecutionOutcome(
                tx_id=entry.tx_id,
                contract=called_contract(entry.envelope),
                method=called_method(entry.envelope),
                status="rejected",
                result=None,
                error=str(exc),
                fingerprint=b"\x00" * 32,
            )

    def query(self, contract_name: str, view: str, args: dict[str, Any]) -> Any:
        """Run a read-only view (service-cell only, no consensus round).

        The view executes under the store's read-only guard: a buggy view
        that attempts a write is rejected (it can never pollute the write
        set or change the fingerprint), and the keys it read are exposed
        through :attr:`last_view_reads`.
        """
        contract = self.registry.get(contract_name)
        try:
            return contract.query(view, args)
        finally:
            # Also updated when the view raises (including a rejected write
            # attempt) — the guard records reads up to the failure point.
            self.last_view_reads = contract.last_view_reads
