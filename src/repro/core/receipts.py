"""Confirmations and aggregated multi-signature receipts.

After executing a forwarded transaction, each consortium cell returns a
signed *confirmation* carrying the resulting contract fingerprint.  The
service cell verifies that the fingerprints agree with its own execution,
serializes the confirmations into an *aggregated receipt*, and returns it
to the client (Section III-D3).  The receipt is the client's cryptographic
proof that every cell executed the transaction identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..crypto.keys import Address
from ..encoding import canonical_json
from ..messages.signer import SignedStatement, Signer, verify_signature


class ReceiptError(ValueError):
    """Raised for malformed or unverifiable receipts."""


@dataclass(frozen=True)
class Confirmation(SignedStatement):
    """One cell's signed statement about an executed transaction."""

    cell: Address
    tx_id: str
    contract: str
    fingerprint_hex: str
    status: str                 # "executed" | "rejected"
    timestamp: float
    error: Optional[str] = None

    @classmethod
    def create(
        cls,
        signer: Signer,
        tx_id: str,
        contract: str,
        fingerprint_hex: str,
        status: str,
        timestamp: float,
        error: Optional[str] = None,
    ) -> "Confirmation":
        """Build and sign a confirmation on behalf of ``signer``."""
        return cls(
            cell=signer.address,
            tx_id=tx_id,
            contract=contract,
            fingerprint_hex=fingerprint_hex,
            status=status,
            timestamp=timestamp,
            signature=b"",
            scheme=signer.scheme,
            error=error,
        )._signed_by(signer)

    def _signed_fields(self) -> dict[str, Any]:
        return {
            "cell": self.cell.hex(),
            "tx_id": self.tx_id,
            "contract": self.contract,
            "fingerprint": self.fingerprint_hex,
            "status": self.status,
            "timestamp": round(float(self.timestamp), 6),
            "error": self.error,
        }

    def verify(self) -> bool:
        """Check the cell's signature over the confirmation body."""
        return verify_signature(self.scheme, self.cell, self.body(), self.signature)

    def to_wire(self) -> dict[str, Any]:
        """JSON-serializable form (embedded in receipts and messages)."""
        # Stays this class's own attribute: the boundary tracer wraps it here.
        return super().to_wire()

    @classmethod
    def from_wire(cls, raw: dict[str, Any]) -> "Confirmation":
        """Parse a confirmation from its wire form."""
        try:
            return cls(
                cell=Address.from_hex(raw["cell"]),
                tx_id=raw["tx_id"],
                contract=raw["contract"],
                fingerprint_hex=raw["fingerprint"],
                status=raw["status"],
                timestamp=float(raw["timestamp"]),
                error=raw.get("error"),
                signature=cls.signature_from_wire(raw),
                scheme=raw.get("scheme", "ecdsa"),
            )
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise ReceiptError(f"malformed confirmation: {exc}") from exc


@dataclass(frozen=True)
class ConfirmationBatch:
    """Confirmations for many transactions, shipped in one envelope.

    The batched pipeline coalesces every confirmation a cell owes the same
    service cell during one scheduling quantum into a single
    ``TX_CONFIRM_BATCH`` message.  Each inner confirmation keeps its own
    signature (it must later be embeddable in an aggregated receipt), so the
    receiver verifies items exactly as it would singleton confirmations.
    Executed and rejected confirmations ride together; the per-item
    ``status`` field carries the distinction the singleton path encodes in
    the ``TX_CONFIRM`` / ``TX_REJECT`` opcode split.
    """

    confirmations: tuple[Confirmation, ...]

    def __post_init__(self) -> None:
        if not self.confirmations:
            raise ReceiptError("a confirmation batch must carry at least one confirmation")

    def __len__(self) -> int:
        return len(self.confirmations)

    @classmethod
    def of(cls, confirmations: list[Confirmation]) -> "ConfirmationBatch":
        """Build a batch from already-signed confirmations."""
        return cls(confirmations=tuple(confirmations))

    def to_data(self) -> dict[str, Any]:
        """The data field D of a ``TX_CONFIRM_BATCH`` envelope."""
        return {"confirmations": [confirmation.to_wire() for confirmation in self.confirmations]}

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "ConfirmationBatch":
        """Parse a batch from an envelope's data field."""
        items = raw.get("confirmations")
        if not isinstance(items, list) or not items:
            raise ReceiptError("confirmation batch carries no confirmation list")
        return cls(confirmations=tuple(Confirmation.from_wire(item) for item in items))


class SingleConfirmation(ConfirmationBatch):
    """The data field D of a per-transaction ``TX_CONFIRM`` / ``TX_REJECT``: a batch of one."""

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "SingleConfirmation":
        """Parse the one confirmation a singleton reply carries."""
        return cls(confirmations=(Confirmation.from_wire(raw.get("confirmation")),))


@dataclass
class AggregatedReceipt:
    """The multi-signature proof returned to the client."""

    tx_id: str
    contract: str
    method: str
    result: Any
    service_cell: Address
    fingerprint_hex: str
    cycle: int
    submitted_at: float
    completed_at: float
    confirmations: list[Confirmation] = field(default_factory=list)

    @property
    def latency(self) -> float:
        """Client-observed confirmation delay in simulated seconds."""
        return self.completed_at - self.submitted_at

    def cells(self) -> list[str]:
        """Hex addresses of every cell that signed the receipt."""
        return [confirmation.cell.hex() for confirmation in self.confirmations]

    def verify(self, expected_cells: Optional[list[Address]] = None) -> bool:
        """Verify every embedded confirmation (and optionally cell coverage).

        ``expected_cells`` lets a client require that specific consortium
        members signed; fingerprints must also all match the receipt's.
        """
        if not self.confirmations:
            return False
        for confirmation in self.confirmations:
            if not confirmation.verify():
                return False
            if confirmation.status != "executed":
                return False
            if confirmation.fingerprint_hex != self.fingerprint_hex:
                return False
            if confirmation.tx_id != self.tx_id:
                return False
        if expected_cells is not None:
            signed = {confirmation.cell for confirmation in self.confirmations}
            if not set(expected_cells).issubset(signed):
                return False
        return True

    def to_wire(self) -> dict[str, Any]:
        """JSON-serializable form carried by TX_RECEIPT messages."""
        return {
            "tx_id": self.tx_id,
            "contract": self.contract,
            "method": self.method,
            "result": self.result,
            "service_cell": self.service_cell.hex(),
            "fingerprint": self.fingerprint_hex,
            "cycle": self.cycle,
            "submitted_at": round(float(self.submitted_at), 6),
            "completed_at": round(float(self.completed_at), 6),
            "confirmations": [confirmation.to_wire() for confirmation in self.confirmations],
        }

    @classmethod
    def from_wire(cls, raw: dict[str, Any]) -> "AggregatedReceipt":
        """Parse a receipt from its wire form."""
        try:
            return cls(
                tx_id=raw["tx_id"],
                contract=raw["contract"],
                method=raw["method"],
                result=raw.get("result"),
                service_cell=Address.from_hex(raw["service_cell"]),
                fingerprint_hex=raw["fingerprint"],
                cycle=int(raw["cycle"]),
                submitted_at=float(raw["submitted_at"]),
                completed_at=float(raw["completed_at"]),
                confirmations=[
                    Confirmation.from_wire(item) for item in raw.get("confirmations", [])
                ],
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ReceiptError(f"malformed receipt: {exc}") from exc

    def byte_size(self) -> int:
        """Serialized size in bytes (feeds the Table II accounting)."""
        return len(canonical_json.dump_bytes(self.to_wire()))
