"""Confirmations and aggregated multi-signature receipts.

After executing a forwarded transaction, each consortium cell returns a
signed *confirmation* carrying the resulting contract fingerprint.  The
service cell verifies that the fingerprints agree with its own execution,
serializes the confirmations into an *aggregated receipt*, and returns it
to the client (Section III-D3).  The receipt is the client's cryptographic
proof that every cell executed the transaction identically.  Its
confirmations all state the same transaction, so it carries that statement
once and, per co-signing cell, only the cell, its timestamp and its
signature.  On its way to the client that signed the transaction it drops
what that client holds already (:class:`CompactReceipt`).
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


def called_method(client_envelope: Envelope) -> str:
    """The method a client envelope calls, as the executor and the client name it."""
    return str(client_envelope.data.get("method", ""))


def _unless(value: Any, derived: Any) -> Any:
    """``value``, or None where the receiver derives exactly it."""
    return None if value == derived else value


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CompactCoSigner(wire.Body, error=ReceiptError, what="receipt co-signer"):
    """A peer's :class:`CoSigner` in a :class:`CompactReceipt`: no scheme if it is the reply's."""

    cell: Address = wire.address()
    timestamp: float = wire.seconds()
    signature: bytes = wire.signature()
    #: None: the scheme of the reply that carries the receipt.
    scheme: Optional[str] = wire.text(omit_none=True, default=None)


@dataclass(frozen=True)
class CompactReceipt(wire.Body, error=ReceiptError, what="compact receipt"):
    """An :class:`AggregatedReceipt` on its way to the client that signed its transaction.

    It carries what that client lacks: the fingerprint, the cycle, the
    result, the service cell's own signature and each peer co-signer.  The
    client's own request states the transaction id, the called contract
    and method and the submission time; the reply envelope that carries
    the receipt states the service cell (its sender), the signature scheme
    and the completion time, which is also the service cell's co-signing
    moment.  Each of those travels only where the receipt states something
    else, and :meth:`rebuild` puts the receipt back together from the
    three.  Only the holder of the request can: the portable, third-party
    checkable form stays :meth:`AggregatedReceipt.to_wire`.
    """

    fingerprint_hex: str = wire.text("fingerprint")
    cycle: int = wire.integer()
    result: Any = wire.anything()
    #: The service cell's co-signature; its peers' follow in ``cosigners``.
    signature: bytes = wire.signature()
    cosigners: tuple[CompactCoSigner, ...] = wire.list_of(wire.nested(CompactCoSigner))(
        default=()
    )
    #: None, each: what the request or the reply envelope states.
    contract: Optional[str] = wire.text(omit_none=True, default=None)
    method: Optional[str] = wire.text(omit_none=True, default=None)
    submitted_at: Optional[float] = wire.seconds(omit_none=True, default=None)
    completed_at: Optional[float] = wire.seconds(omit_none=True, default=None)
    #: The service cell's co-signing moment and scheme.
    timestamp: Optional[float] = wire.seconds(omit_none=True, default=None)
    scheme: Optional[str] = wire.text(omit_none=True, default=None)

    @classmethod
    def of(
        cls, receipt: AggregatedReceipt, request: Envelope, scheme: str, timestamp: float
    ) -> "CompactReceipt":
        """``receipt`` as a reply signed with ``scheme`` at ``timestamp`` carries it.

        ``request`` is the client-signed transaction the receipt is of.
        Raises :class:`ReceiptError` for a receipt of another transaction,
        or one whose first co-signer is not its service cell.
        """
        if receipt.tx_id != request.payload.hash_hex():
            raise ReceiptError(f"receipt of {receipt.tx_id}, not of the request it answers")
        if not receipt.cosigners or receipt.cosigners[0].cell != receipt.service_cell:
            raise ReceiptError("the service cell must be a receipt's first co-signer")
        own, *peers = receipt.cosigners
        moment = round(timestamp, 6)
        return cls(
            receipt.fingerprint_hex, receipt.cycle, receipt.result, own.signature,
            tuple(
                CompactCoSigner(peer.cell, peer.timestamp, peer.signature,
                                _unless(peer.scheme, scheme))
                for peer in peers
            ),
            contract=_unless(receipt.contract, called_contract(request)),
            method=_unless(receipt.method, called_method(request)),
            submitted_at=_unless(round(receipt.submitted_at, 6), request.payload.timestamp),
            completed_at=_unless(round(receipt.completed_at, 6), moment),
            timestamp=_unless(round(own.timestamp, 6), moment),
            scheme=_unless(own.scheme, scheme),
        )

    def rebuild(self, request: Envelope, reply: Envelope) -> AggregatedReceipt:
        """The receipt, from the client's own ``request`` and the ``reply`` that carried this.

        It verifies only if ``request`` is the transaction its co-signers
        signed and ``reply`` came from its service cell.
        """
        scheme, moment = reply.scheme, reply.payload.timestamp
        own = CoSigner(
            reply.sender, moment if self.timestamp is None else self.timestamp, self.signature,
            scheme if self.scheme is None else self.scheme,
        )
        peers = (
            CoSigner(peer.cell, peer.timestamp, peer.signature,
                     scheme if peer.scheme is None else peer.scheme)
            for peer in self.cosigners
        )
        return AggregatedReceipt(
            tx_id=request.payload.hash_hex(),
            contract=called_contract(request) if self.contract is None else self.contract,
            method=called_method(request) if self.method is None else self.method,
            result=self.result,
            service_cell=reply.sender,
            fingerprint_hex=self.fingerprint_hex,
            status="executed",
            cycle=self.cycle,
            submitted_at=(
                request.payload.timestamp if self.submitted_at is None else self.submitted_at
            ),
            completed_at=moment if self.completed_at is None else self.completed_at,
            cosigners=(own, *peers),
        )
