"""Confirmations and aggregated multi-signature receipts.

After executing a forwarded transaction, each consortium cell returns a
signed *confirmation* carrying the resulting contract fingerprint.  The
service cell verifies that the fingerprints agree with its own execution,
serializes the confirmations into an *aggregated receipt*, and returns it
to the client (Section III-D3).  The receipt is the client's cryptographic
proof that every cell executed the transaction identically.  Its
confirmations all state the same transaction, so it carries that statement
once and, per co-signing cell, only the cell, its timestamp and its
signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from ..crypto.keys import Address
from ..encoding import canonical_json
from ..messages import wire
from ..messages.signer import SignedStatement, Signer


class ReceiptError(ValueError):
    """Raised for malformed or unverifiable receipts."""


@dataclass(frozen=True)
class Confirmation(SignedStatement, error=ReceiptError):
    """One cell's signed statement about an executed transaction."""

    SIGNER = "cell"

    cell: Address = wire.address()
    tx_id: str = wire.text()
    contract: str = wire.text()
    fingerprint_hex: str = wire.text("fingerprint")
    status: str = wire.text()    # "executed" | "rejected"
    timestamp: float = wire.seconds()
    error: Optional[str] = wire.optional(wire.text)(default=None)

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
        return cls._signed(
            signer, tx_id=tx_id, contract=contract, fingerprint_hex=fingerprint_hex,
            status=status, timestamp=timestamp, error=error,
        )


@dataclass(frozen=True)
class ConfirmationBatch(wire.Body, error=ReceiptError):
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

    confirmations: tuple[Confirmation, ...] = wire.list_of(wire.nested(Confirmation))()

    def __post_init__(self) -> None:
        if not self.confirmations:
            raise ReceiptError("a confirmation batch must carry at least one confirmation")

    def __len__(self) -> int:
        return len(self.confirmations)

    @classmethod
    def of(cls, confirmations: list[Confirmation]) -> "ConfirmationBatch":
        """Build a batch from already-signed confirmations."""
        return cls(confirmations=tuple(confirmations))


@dataclass(frozen=True)
class SingleConfirmation(ConfirmationBatch):
    """The data field D of a per-transaction ``TX_CONFIRM`` / ``TX_REJECT``: a batch of one."""

    confirmations: tuple[Confirmation, ...] = wire.single(wire.nested(Confirmation))("confirmation")


@dataclass(frozen=True)
class CoSigner(wire.Body, error=ReceiptError, what="receipt co-signer"):
    """One cell's signature on a receipt: what differs between its co-signers.

    Every co-signer signed the same :class:`Confirmation` but for its own
    ``cell`` and ``timestamp``; the statement they share travels once, on
    the receipt.
    """

    cell: Address = wire.address()
    timestamp: float = wire.seconds()
    signature: bytes = wire.signature()
    scheme: str = wire.text(default="ecdsa")


@dataclass
class AggregatedReceipt(wire.Body, error=ReceiptError, what="receipt"):
    """The multi-signature proof returned to the client.

    The receipt states the transaction once — ``tx_id``, ``contract``,
    ``fingerprint`` and ``status`` — and each co-signer adds only its cell,
    timestamp and signature (:class:`CoSigner`), the shape of a quorum
    certificate.  :attr:`confirmations` rebuilds every co-signer's full
    signed statement from the two, so a receipt whose co-signers signed
    different statements cannot be expressed: :meth:`of` refuses to build one.
    """

    tx_id: str = wire.text()
    contract: str = wire.text()
    method: str = wire.text()
    result: Any = wire.anything()
    service_cell: Address = wire.address()
    fingerprint_hex: str = wire.text("fingerprint")
    status: str = wire.text()
    cycle: int = wire.integer()
    submitted_at: float = wire.seconds()
    completed_at: float = wire.seconds()
    cosigners: tuple[CoSigner, ...] = wire.list_of(wire.nested(CoSigner))(default=())

    def __post_init__(self) -> None:
        if self.status != "executed":
            raise ReceiptError(f"a receipt states an executed transaction, not {self.status!r}")

    @classmethod
    def of(
        cls,
        confirmations: Iterable[Confirmation],
        *,
        tx_id: str,
        contract: str,
        fingerprint_hex: str,
        **fields: Any,
    ) -> "AggregatedReceipt":
        """The receipt co-signed by ``confirmations``, which must all state it.

        Raises :class:`ReceiptError` for a confirmation of another
        transaction, contract or fingerprint, one that is not ``executed``,
        or one that carries an error.
        """
        statement = (tx_id, contract, fingerprint_hex, "executed", None)
        cosigners = []
        for confirmation in confirmations:
            signed = (
                confirmation.tx_id, confirmation.contract, confirmation.fingerprint_hex,
                confirmation.status, confirmation.error,
            )
            if signed != statement:
                raise ReceiptError(
                    f"cell {confirmation.cell.hex()} signed {signed!r}, "
                    f"not the receipt's {statement!r}"
                )
            cosigners.append(CoSigner(
                confirmation.cell, confirmation.timestamp, confirmation.signature,
                confirmation.scheme,
            ))
        return cls(
            tx_id=tx_id, contract=contract, fingerprint_hex=fingerprint_hex, status="executed",
            cosigners=tuple(cosigners), **fields,
        )

    @property
    def confirmations(self) -> tuple[Confirmation, ...]:
        """Every co-signer's full signed statement, rebuilt from the shared fields."""
        return tuple(
            Confirmation(
                cell=cosigner.cell, tx_id=self.tx_id, contract=self.contract,
                fingerprint_hex=self.fingerprint_hex, status=self.status,
                timestamp=cosigner.timestamp, signature=cosigner.signature,
                scheme=cosigner.scheme,
            )
            for cosigner in self.cosigners
        )

    @property
    def latency(self) -> float:
        """Client-observed confirmation delay in simulated seconds."""
        return self.completed_at - self.submitted_at

    def cells(self) -> list[str]:
        """Hex addresses of every cell that signed the receipt."""
        return [cosigner.cell.hex() for cosigner in self.cosigners]

    def verify(self, expected_cells: Optional[list[Address]] = None) -> bool:
        """Verify every co-signer's signature (and optionally cell coverage).

        ``expected_cells`` lets a client require that specific consortium
        members signed.  Each signature is checked over the statement the
        receipt states, so a receipt whose shared fields were changed after
        signing verifies for none of its co-signers.
        """
        if not self.cosigners:
            return False
        if not all(confirmation.verify() for confirmation in self.confirmations):
            return False
        if expected_cells is not None:
            signed = {cosigner.cell for cosigner in self.cosigners}
            if not set(expected_cells).issubset(signed):
                return False
        return True

    def byte_size(self) -> int:
        """Serialized size in bytes (feeds the Table II accounting)."""
        return len(canonical_json.dump_bytes(self.to_wire()))
