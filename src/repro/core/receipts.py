"""Confirmations and aggregated multi-signature receipts.

After executing a forwarded transaction, each consortium cell returns a
signed *confirmation* carrying the resulting contract fingerprint.  The
service cell verifies that the fingerprints agree with its own execution
and returns the *aggregated receipt* they co-sign to the client (Section
III-D3).  The receipt is the client's cryptographic proof that every cell
executed the transaction identically.  Its confirmations all state the
same transaction, so it carries that statement once and, per co-signing
cell, only the cell, its timestamp and its signature.  The service cell
builds it straight from the confirmations in the form it sends, without
what the client that signed the transaction holds already or derives
(:class:`CompactReceipt`); the client rebuilds the full receipt and checks
it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Optional, Sequence, cast

from ..crypto.fingerprint import canonical_bytes
from ..crypto.hashing import fast_hash
from ..crypto.keys import Address, PublicKey
from ..messages import wire
from ..messages.envelope import DEFAULT_SCHEME, Envelope
from ..messages.signer import SignedStatement, Signer, verify_signature
from .ledger import tx_ref


class ReceiptError(ValueError):
    """Raised for malformed or unverifiable receipts."""


#: ``canonical_bytes`` of the six-key execution-fingerprint dict: its keys in
#: sorted order, each followed by its encoded value (text as ``s<len>:<utf-8>``).
_EXECUTION_SHAPE = (
    b"d6:s8:contracts%d:%b" b"s5:error%b" b"s6:methods%d:%b"
    b"s6:result%b" b"s6:statuss%d:%b" b"s5:tx_ids%d:%b"
)


def execution_fingerprint(
    tx_id: str, contract: str, method: str, status: str, result: Any, error: Optional[str]
) -> bytes:
    """The fingerprint a confirmation states about one execution.

    The hashed bytes are ``canonical_bytes`` of the dict of those six
    fields, written from its fixed shape — the keys in sorted order, each
    text field encoded in place — so only ``result`` goes through the
    generic encoder.  Of an executed call it is a function of what the
    client signed and the result it is told, so the client derives it.
    """
    contract_raw, method_raw = contract.encode(), method.encode()
    status_raw, tx_id_raw = status.encode(), tx_id.encode()
    if error is None:
        error_raw = b"n"
    else:
        raw = error.encode()
        error_raw = b"s%d:%b" % (len(raw), raw)
    return fast_hash(_EXECUTION_SHAPE % (
        len(contract_raw), contract_raw,
        error_raw,
        len(method_raw), method_raw,
        canonical_bytes(result),
        len(status_raw), status_raw,
        len(tx_id_raw), tx_id_raw,
    ))


def executed_fingerprint_hex(tx_id: str, contract: str, method: str, result: Any) -> str:
    """0x-hex :func:`execution_fingerprint` of a call that executed and returned ``result``."""
    return "0x" + execution_fingerprint(tx_id, contract, method, "executed", result, None).hex()


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


def _others(consortium: Sequence[Address], cell: Address) -> list[Address]:
    """The cells of ``consortium`` but ``cell``, in consortium order."""
    return [member for member in consortium if member != cell]


@dataclass(frozen=True)
class LinkConfirmation(wire.Body, error=ReceiptError):
    """A :class:`Confirmation` on the cell↔cell link: what the service cell lacks.

    The transaction is named by the first bytes of its id (:func:`tx_ref`):
    the service cell holds it, and rebuilds the full id from its own
    ledger entry.  The signing cell and its scheme are the envelope's, and
    the contract, unless the signer named another, is the one that entry
    calls.  An executed call's fingerprint and status travel
    only where the signer's fingerprint is not its own execution's: the
    service cell states its own execution's in their place, so a peer that
    executed the call differently signed a statement that does not verify
    (``fingerprint_hex`` and ``status`` are None together).  The timestamp
    travels only where it is not the carrying ``TX_CONFIRM``'s
    (:meth:`ConfirmationBatch.data_at`).  :meth:`confirmation` rebuilds
    the signed statement, which verifies only for the cell, contract,
    transaction and execution it was signed for.
    """

    #: The :func:`tx_ref` of the transaction's id.
    tx_id: str = wire.text()
    signature: bytes = wire.signature()
    #: None, both: the service cell's own execution of the call, which executed.
    fingerprint_hex: Optional[str] = wire.text("fingerprint", omit_none=True, default=None)
    status: Optional[str] = wire.text(omit_none=True, default=None)
    #: None: the timestamp of the ``TX_CONFIRM`` that carries the item.
    timestamp: Optional[float] = wire.seconds(omit_none=True, default=None)
    error: Optional[str] = wire.text(omit_none=True, default=None)
    #: None: the contract the forwarded client envelope calls.
    contract: Optional[str] = wire.text(omit_none=True, default=None)

    def __post_init__(self) -> None:
        if (self.fingerprint_hex is None) != (self.status is None):
            raise ReceiptError("a link confirmation states its fingerprint and status together")
        if self.fingerprint_hex is None and self.error is not None:
            raise ReceiptError("a confirmation of an executed call states no error")

    @classmethod
    def of(
        cls, confirmation: Confirmation, client_envelope: Envelope, own_fingerprint: str = ""
    ) -> "LinkConfirmation":
        """The link item of ``confirmation`` about the transaction in ``client_envelope``.

        ``own_fingerprint`` is the fingerprint the signer's own execution
        gives: a confirmation of an executed call that states it leaves it
        and the status to the service cell.
        """
        contract = confirmation.contract
        derived = (
            confirmation.status == "executed" and confirmation.error is None
            and confirmation.fingerprint_hex == own_fingerprint
        )
        return cls(
            tx_ref(confirmation.tx_id), confirmation.signature,
            None if derived else confirmation.fingerprint_hex,
            None if derived else confirmation.status,
            confirmation.timestamp, confirmation.error,
            None if contract == called_contract(client_envelope) else contract,
        )

    def confirmation(
        self,
        cell: Address,
        scheme: str,
        client_envelope: Envelope,
        moment: float,
        executed_fingerprint: Optional[str] = None,
    ) -> Confirmation:
        """The full statement ``cell`` signed, if this item came from ``cell``
        about the transaction in ``client_envelope``, whose id it states.

        ``moment`` is the carrying ``TX_CONFIRM``'s timestamp, and
        ``executed_fingerprint`` the fingerprint of the receiver's own
        execution, which an item without one states.
        """
        if self.fingerprint_hex is None:
            if executed_fingerprint is None:
                raise ReceiptError("the item states the receiver's fingerprint, which is unknown")
            fingerprint_hex, status = executed_fingerprint, "executed"
        else:
            fingerprint_hex, status = self.fingerprint_hex, str(self.status)
        return Confirmation(
            cell=cell, tx_id=client_envelope.payload.hash_hex(),
            contract=called_contract(client_envelope) if self.contract is None else self.contract,
            fingerprint_hex=fingerprint_hex, status=status,
            timestamp=moment if self.timestamp is None else self.timestamp,
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

    def data_at(self, moment: float) -> dict[str, Any]:
        """The data field of a ``TX_CONFIRM`` stamped ``moment`` that carries this batch.

        An item signed at that moment leaves its timestamp to the envelope.
        """
        data = self.to_data()
        moment = round(moment, 6)
        for item in data["confirmations"]:
            if item.get("timestamp") == moment:
                del item["timestamp"]
        return data


@dataclass(frozen=True)
class CoSigner(wire.Body, error=ReceiptError, what="receipt co-signer"):
    """One cell's signature on a receipt: what differs between its co-signers.

    Every co-signer signed the same :class:`Confirmation` but for its own
    ``cell`` and ``timestamp``; the statement they share travels once, on
    the receipt.  An :class:`AggregatedReceipt` states every co-signer's
    cell and scheme; a :class:`CompactReceipt` a scheme only where it is
    not the carrying reply's, and the cells only where they are not the
    consortium's other cells in consortium order.
    """

    #: None: in a compact receipt, the consortium cell in this one's place.
    cell: Optional[Address] = wire.address(omit_none=True)
    timestamp: float = wire.seconds()
    signature: bytes = wire.signature()
    #: None: in a compact receipt, the scheme of the reply that carries it.
    scheme: Optional[str] = wire.text(omit_none=True, default=None)


@dataclass(frozen=True)
class AggregatedReceipt(wire.Body, error=ReceiptError, what="receipt"):
    """The multi-signature proof returned to the client.

    The receipt states the transaction once — ``tx_id``, ``contract``,
    ``fingerprint`` and ``status`` — and each co-signer adds only its cell,
    timestamp and signature (:class:`CoSigner`), the shape of a quorum
    certificate.  :attr:`confirmations` rebuilds every co-signer's full
    signed statement from the two, so a co-signer that signed another
    statement does not verify.  The client builds one, with
    :meth:`CompactReceipt.rebuild`.
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
        if any(cosigner.cell is None for cosigner in self.cosigners):
            raise ReceiptError("a receipt names every co-signer")
        if any(cosigner.scheme is None for cosigner in self.cosigners):
            # The portable form states every scheme; one it leaves out is ECDSA.
            object.__setattr__(self, "cosigners", tuple(
                replace(cosigner, scheme=DEFAULT_SCHEME) if cosigner.scheme is None else cosigner
                for cosigner in self.cosigners
            ))

    @property
    def confirmations(self) -> tuple[Confirmation, ...]:
        """Every co-signer's full signed statement, rebuilt from the shared fields."""
        return tuple(
            Confirmation(
                cell=cast(Address, cosigner.cell), tx_id=self.tx_id, contract=self.contract,
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
        return [cast(Address, cosigner.cell).hex() for cosigner in self.cosigners]

    def verify(
        self,
        expected_cells: Optional[list[Address]] = None,
        known_keys: Optional[Mapping[Address, PublicKey]] = None,
    ) -> bool:
        """Verify every co-signer's signature (and optionally cell coverage).

        ``expected_cells`` lets a client require that specific consortium
        members signed, and ``known_keys`` check a co-signer whose key the
        client holds against that key instead of recovering it.  Each signature is checked over the statement the
        receipt states, so a receipt whose shared fields were changed after
        signing verifies for none of its co-signers; and that statement's
        fingerprint must be the one its transaction, call and ``result``
        give (:func:`executed_fingerprint_hex`), so the co-signatures bind
        the method and the result too.
        """
        if not self.cosigners or self.fingerprint_hex != executed_fingerprint_hex(
            self.tx_id, self.contract, self.method, self.result
        ):
            return False
        keys = known_keys or {}
        # Each co-signer's statement differs from the others' only in its
        # cell and timestamp: check its bytes without building it.
        shared = {
            "tx_id": self.tx_id, "contract": self.contract,
            "fingerprint_hex": self.fingerprint_hex, "status": self.status, "error": None,
        }
        if not all(
            verify_signature(
                cast(str, cosigner.scheme), cast(Address, cosigner.cell),
                Confirmation.body_of(cell=cosigner.cell, timestamp=cosigner.timestamp, **shared),
                cosigner.signature, keys.get(cast(Address, cosigner.cell)),
            )
            for cosigner in self.cosigners
        ):
            return False
        if expected_cells is not None:
            signed = {cosigner.cell for cosigner in self.cosigners}
            if not set(expected_cells).issubset(signed):
                return False
        return True


@dataclass(frozen=True)
class CompactReceipt(wire.Body, error=ReceiptError, what="compact receipt"):
    """An :class:`AggregatedReceipt` on its way to the client that signed its transaction.

    It is the whole data field of a ``TX_RECEIPT``, and carries what that
    client lacks: the cycle, the result, the service cell's own signature
    and each peer co-signer.  The client's own request states the
    transaction id, the called contract and method and the submission time;
    the fingerprint the co-signers signed is derived from those and the
    result; the reply envelope that carries the receipt states the service
    cell (the cell the client asked), the signature scheme and the service
    cell's co-signing moment, which completes the receipt; and the
    consortium, which the client knows, names the peer co-signers when they
    are its other cells in its order.  The contract, the method, that
    moment, each scheme and the peers' cells travel only where the receipt
    states something else, and :meth:`rebuild` puts the receipt back
    together from the four.  Only the holder of the request can: the
    portable, third-party checkable form stays
    :meth:`AggregatedReceipt.to_wire`.
    """

    cycle: int = wire.integer()
    result: Any = wire.anything()
    #: The service cell's co-signature; its peers' follow in ``cosigners``.
    signature: bytes = wire.signature()
    cosigners: tuple[CoSigner, ...] = wire.list_of(wire.nested(CoSigner))(default=())
    #: None, each: what the request or the reply envelope states.
    contract: Optional[str] = wire.text(omit_none=True, default=None)
    method: Optional[str] = wire.text(omit_none=True, default=None)
    #: The service cell's co-signing moment, which completes the receipt, and scheme.
    timestamp: Optional[float] = wire.seconds(omit_none=True, default=None)
    scheme: Optional[str] = wire.text(omit_none=True, default=None)

    def __post_init__(self) -> None:
        if len({cosigner.cell is None for cosigner in self.cosigners}) > 1:
            raise ReceiptError("a compact receipt names all of its peer co-signers or none")

    @classmethod
    def of(
        cls,
        own: Confirmation,
        peers: Iterable[Confirmation],
        request: Envelope,
        *,
        method: str,
        result: Any,
        cycle: int,
        scheme: str,
        moment: float,
        consortium: Sequence[Address],
    ) -> "CompactReceipt":
        """The receipt ``own`` and ``peers`` co-sign, as a reply carries it.

        ``own`` is the service cell's confirmation of ``request``, the
        client-signed transaction, and the receipt completes when the
        service cell co-signs; the reply is signed with ``scheme`` at
        ``moment``.  The caller has judged that every peer signed the
        statement ``own`` states, and lists them in the order of the
        ``consortium``'s cells.
        """
        moment = round(moment, 6)
        peers = tuple(peers)
        named = [peer.cell for peer in peers] != _others(consortium, own.cell)
        return cls(
            cycle, result, own.signature,
            tuple(
                CoSigner(
                    peer.cell if named else None, peer.timestamp, peer.signature,
                    _unless(peer.scheme, scheme),
                )
                for peer in peers
            ),
            contract=_unless(own.contract, called_contract(request)),
            method=_unless(method, called_method(request)),
            timestamp=_unless(round(own.timestamp, 6), moment),
            scheme=_unless(own.scheme, scheme),
        )

    def rebuild(
        self, request: Envelope, reply: Envelope, consortium: Sequence[Address]
    ) -> AggregatedReceipt:
        """The receipt, from the client's own ``request`` and the ``reply`` that carried this.

        Its fingerprint is the one ``request``'s call and the carried
        result give, so it verifies only if ``request`` is the transaction
        its co-signers signed, ``result`` is what they executed and
        ``reply`` came from its service cell.  Unnamed peer co-signers are
        the other cells of ``consortium``, the deployment's, in its order;
        a receipt with another number of them raises :class:`ReceiptError`.
        """
        scheme = reply.scheme
        completed_at = reply.payload.timestamp if self.timestamp is None else self.timestamp
        own = CoSigner(
            reply.sender, completed_at, self.signature,
            scheme if self.scheme is None else self.scheme,
        )
        cells: Sequence[Optional[Address]] = [peer.cell for peer in self.cosigners]
        if self.cosigners and self.cosigners[0].cell is None:
            cells = _others(consortium, reply.sender)
            if len(cells) != len(self.cosigners):
                raise ReceiptError("an unnamed co-signer list is not the consortium's other cells")
        peers = (
            CoSigner(cell, peer.timestamp, peer.signature,
                     scheme if peer.scheme is None else peer.scheme)
            for cell, peer in zip(cells, self.cosigners)
        )
        tx_id = request.payload.hash_hex()
        contract = called_contract(request) if self.contract is None else self.contract
        method = called_method(request) if self.method is None else self.method
        return AggregatedReceipt(
            tx_id=tx_id,
            contract=contract,
            method=method,
            result=self.result,
            service_cell=reply.sender,
            fingerprint_hex=executed_fingerprint_hex(tx_id, contract, method, self.result),
            status="executed",
            cycle=self.cycle,
            submitted_at=request.payload.timestamp,
            completed_at=completed_at,
            cosigners=(own, *peers),
        )
