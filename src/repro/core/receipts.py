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
from ..messages.envelope import Envelope
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


def called_contract(client_envelope: Envelope) -> str:
    """The contract a client envelope calls, as the executor and both ends of the link name it."""
    return str(client_envelope.data.get("contract", ""))


@dataclass(frozen=True)
class LinkConfirmation(wire.Body, error=ReceiptError):
    """A :class:`Confirmation` on the cell↔cell link: what the service cell lacks.

    The signing cell and its scheme are the envelope's, and the contract,
    unless the signer named another, is the one the service cell's own
    ledger entry calls; :meth:`confirmation` rebuilds the signed statement,
    which verifies only for the cell, contract and transaction it was signed for.
    """

    tx_id: str = wire.text()
    fingerprint_hex: str = wire.text("fingerprint")
    status: str = wire.text()
    timestamp: float = wire.seconds()
    signature: bytes = wire.signature()
    error: Optional[str] = wire.text(omit_none=True, default=None)
    #: None: the contract the forwarded client envelope calls.
    contract: Optional[str] = wire.text(omit_none=True, default=None)

    @classmethod
    def of(cls, confirmation: Confirmation, client_envelope: Envelope) -> "LinkConfirmation":
        """The link item of ``confirmation`` about the transaction in ``client_envelope``."""
        contract = confirmation.contract
        return cls(
            confirmation.tx_id, confirmation.fingerprint_hex, confirmation.status,
            confirmation.timestamp, confirmation.signature, confirmation.error,
            None if contract == called_contract(client_envelope) else contract,
        )

    def confirmation(self, cell: Address, scheme: str, client_envelope: Envelope) -> Confirmation:
        """The full statement ``cell`` signed, if this item came from ``cell``."""
        return Confirmation(
            cell=cell, tx_id=self.tx_id,
            contract=called_contract(client_envelope) if self.contract is None else self.contract,
            fingerprint_hex=self.fingerprint_hex, status=self.status, timestamp=self.timestamp,
            error=self.error, signature=self.signature, scheme=scheme,
        )


@dataclass(frozen=True)
class ConfirmationBatch(wire.Body, error=ReceiptError):
    """The data field of a ``TX_CONFIRM``: confirmations owed to one service cell.

    Executed and rejected ones ride together, as many as the batch
    dispatcher coalesced (one, with batching off).  Each item keeps its own
    signature: it must later be embeddable in an aggregated receipt.
    """

    confirmations: tuple[LinkConfirmation, ...] = wire.list_of(wire.nested(LinkConfirmation))()

    def __post_init__(self) -> None:
        if not self.confirmations:
            raise ReceiptError("a confirmation batch must carry at least one confirmation")

    def __len__(self) -> int:
        return len(self.confirmations)

    @classmethod
    def of(cls, confirmations: list[LinkConfirmation]) -> "ConfirmationBatch":
        """Build a batch from link items of already-signed confirmations."""
        return cls(confirmations=tuple(confirmations))


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
