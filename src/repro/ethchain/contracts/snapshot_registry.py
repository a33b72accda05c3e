"""The Blockumulus anchor contract (Solidity contract in the paper).

This is the on-chain half of the overlay consensus (Section III-A3): each
cell periodically reports the fingerprint of its current data snapshot; the
contract records the report immutably and refuses repeated reports for the
same cycle, so any later mismatch between a cell's published data and its
anchored fingerprint is publicly verifiable proof of misbehaviour.

The contract also implements the censorship-resistance escape hatch of
Section V-B: any user can submit a Blockumulus transaction directly to the
contract ("contingency transaction"), and the protocol obliges cells to
execute everything submitted this way.
"""

from __future__ import annotations

from typing import Any, Optional

from ...crypto.keys import Address
from ...encoding import canonical_json
from .base import CallContext, ContractError, NativeContract, contract_method


class SnapshotRegistry(NativeContract):
    """On-chain registry of Blockumulus snapshot fingerprints."""

    NAME = "SnapshotRegistry"

    def __init__(
        self,
        address: Address,
        deployment_id: str,
        cells: list[Address],
        report_period: int,
        initial_timestamp: int,
    ) -> None:
        super().__init__(address)
        if report_period <= 0:
            raise ValueError("report period must be positive")
        if not cells:
            raise ValueError("a deployment needs at least one cell")
        # System invariants are fixed at deployment time and kept on the
        # instance (they would be immutable constructor arguments in
        # Solidity); reports and contingency transactions live in storage.
        self.deployment_id = deployment_id
        self.cells = list(cells)
        self.report_period = int(report_period)
        self.initial_timestamp = int(initial_timestamp)

    # ------------------------------------------------------------------
    # Storage keys
    # ------------------------------------------------------------------
    @staticmethod
    def _report_key(cycle: int, cell: Address) -> str:
        return f"report/{cycle}/{cell.hex()}"

    @staticmethod
    def _contingency_key(index: int) -> str:
        return f"contingency/{index}"

    _CONTINGENCY_COUNT_KEY = "contingency_count"

    # ------------------------------------------------------------------
    # Externally callable methods
    # ------------------------------------------------------------------
    @contract_method
    def report(self, ctx: CallContext, cycle: int, fingerprint: str) -> dict[str, Any]:
        """Record the snapshot ``fingerprint`` of ``ctx.sender`` for ``cycle``.

        Reverts if the sender is not one of the consortium cells or if the
        sender has already reported for this cycle (retrospective
        modification is thereby impossible).
        """
        if ctx.sender not in self.cells:
            raise ContractError("report: sender is not a registered cell")
        if not isinstance(cycle, int) or cycle < 0:
            raise ContractError("report: cycle must be a non-negative integer")
        fingerprint_bytes = parse_fingerprint(fingerprint)
        key = self._report_key(cycle, ctx.sender)
        existing = self.sload(ctx, key)
        if existing is not None:
            raise ContractError(f"report: cycle {cycle} already reported by this cell")
        self.charge_keccak(ctx, len(fingerprint_bytes))
        self.sstore(ctx, key, fingerprint_bytes)
        self.emit(ctx, "SnapshotReported", cell=ctx.sender.hex(), cycle=cycle,
                  fingerprint="0x" + fingerprint_bytes.hex())
        return {"cycle": cycle, "cell": ctx.sender.hex()}

    @contract_method
    def submit_contingency(self, ctx: CallContext, transaction: dict[str, Any]) -> dict[str, Any]:
        """Store a censored Blockumulus transaction for mandatory execution."""
        if not isinstance(transaction, dict) or not transaction:
            raise ContractError("submit_contingency: transaction payload required")
        encoded = canonical_json.dump_bytes(transaction)
        count = self._read_contingency_count(ctx)
        self.charge_keccak(ctx, len(encoded))
        self.sstore(ctx, self._contingency_key(count), encoded)
        self.sstore(ctx, self._CONTINGENCY_COUNT_KEY, str(count + 1).encode())
        self.emit(ctx, "ContingencySubmitted", index=count, submitter=ctx.sender.hex())
        return {"index": count}

    def _read_contingency_count(self, ctx: CallContext) -> int:
        raw = self.sload(ctx, self._CONTINGENCY_COUNT_KEY)
        return int(raw.decode()) if raw else 0

    # ------------------------------------------------------------------
    # Gas-free views (eth_call analogues used by cells and auditors)
    # ------------------------------------------------------------------
    def get_report(self, state, cycle: int, cell: Address) -> Optional[bytes]:
        """The fingerprint reported by ``cell`` for ``cycle`` (or None).

        The time at which the report landed is available from the mined
        transaction's receipt/block rather than contract storage, keeping
        the per-report gas close to the 49,193 gas the paper measures.
        """
        return self.view(state, self._report_key(cycle, cell))

    def contingency_count(self, state) -> int:
        """Number of contingency transactions submitted so far."""
        raw = self.view(state, self._CONTINGENCY_COUNT_KEY)
        return int(raw.decode()) if raw else 0

    def get_contingency(self, state, index: int) -> Optional[dict[str, Any]]:
        """Fetch the contingency transaction at ``index``."""
        raw = self.view(state, self._contingency_key(index))
        return canonical_json.loads(raw) if raw else None

    def all_contingencies(self, state) -> list[dict[str, Any]]:
        """All contingency transactions, in submission order."""
        return [
            self.get_contingency(state, index)
            for index in range(self.contingency_count(state))
        ]


def parse_fingerprint(fingerprint: str | bytes) -> bytes:
    """Normalize a 32-byte fingerprint supplied as hex or bytes."""
    if isinstance(fingerprint, bytes):
        value = fingerprint
    elif isinstance(fingerprint, str):
        text = fingerprint[2:] if fingerprint.startswith("0x") else fingerprint
        try:
            value = bytes.fromhex(text)
        except ValueError as exc:
            raise ContractError("report: fingerprint is not valid hex") from exc
    else:
        raise ContractError("report: fingerprint must be hex or bytes")
    if len(value) != 32:
        raise ContractError("report: fingerprint must be exactly 32 bytes")
    return value
