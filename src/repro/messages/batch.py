"""The forward body of the overlay hot path.

The paper's protocol forwards every client transaction to every other
consortium cell as an individual signed message, so a burst of N
simultaneous transactions costs O(N * cells) network events (Fig. 7
steps 2-3).  A ``TX_FORWARD`` carries a list of the client envelopes
queued for one destination cell during one scheduling quantum (one, with
batching off).  The outer envelope travels unsigned — the link it arrives
on names the forwarding cell — and every inner item keeps its client's
signature, so the receiving cell authenticates each transaction on its
own: as a ``TX_SUBMIT`` to the forwarding cell, which is what its client
signed.

Only the forward bodies live here; the confirmation batch is defined next
to :class:`repro.core.receipts.Confirmation` to avoid a layering cycle
(``core`` imports ``messages``, never the other way around).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..crypto.keys import Address
from . import wire
from .envelope import Envelope, EnvelopeError, LinkEnvelope
from .opcodes import Opcode


class BatchError(ValueError):
    """Raised for malformed batch payloads."""


@dataclass(frozen=True)
class ForwardBatch(wire.Body, error=BatchError):
    """An ordered set of client envelopes forwarded in one message.

    The batch stores the *link forms* of the client envelopes, which is
    exactly what rides inside the outer envelope's data field: each leaves
    out its recipient, which is the forwarding cell, the outer envelope's
    sender, and its opcode, which is ``TX_SUBMIT`` (the only one a cell
    services and so forwards).  Parsing and client-signature verification
    stay per-transaction on the receiver.
    """

    transactions: tuple[dict[str, Any], ...] = wire.list_of(wire.obj)()

    def __post_init__(self) -> None:
        if not self.transactions:
            raise BatchError("a forward batch must carry at least one transaction")

    def __len__(self) -> int:
        return len(self.transactions)

    @classmethod
    def of(cls, envelopes: Iterable[Envelope]) -> "ForwardBatch":
        """Build a batch from client ``TX_SUBMIT``s addressed to the forwarding cell."""
        transactions = []
        for envelope in envelopes:
            if envelope.operation is not Opcode.TX_SUBMIT:
                raise BatchError(f"only a tx_submit is forwarded, not {envelope.operation.value}")
            link = envelope.to_link()
            del link["payload"]["operation"]
            transactions.append(link)
        return cls(transactions=tuple(transactions))

    def envelopes(self, forwarder: Address) -> list[Envelope]:
        """Parse every inner client envelope under ``forwarder`` (structure check only).

        Read as the receiving cell reads them; signature verification is
        its job, per transaction.
        """
        return ForwardedTransactions.from_wire(self.to_wire()).envelopes(forwarder)


@dataclass(frozen=True)
class ForwardedTransactions(wire.Body, error=BatchError):
    """What a ``TX_FORWARD`` delivers: its client envelopes, parsed but unaddressed.

    The receiving cell's view of a :class:`ForwardBatch`: every item is a
    structurally sound link envelope by the time a handler sees it.  Its
    recipient is the forwarder, which the handler knows once the message is
    authenticated, and its opcode ``TX_SUBMIT``: :meth:`envelopes` supplies
    both, and refuses the whole message for one item whose payload cannot
    be read, as ingress refuses it for one that is not a link envelope at
    all.
    """

    transactions: tuple[LinkEnvelope, ...] = wire.list_of(wire.nested(LinkEnvelope))()

    def __post_init__(self) -> None:
        if not self.transactions:
            raise BatchError("a forward batch must carry at least one transaction")
        if any(item.signature is None for item in self.transactions):
            raise BatchError("a forwarded transaction must carry its client's signature")

    def envelopes(self, forwarder: Address) -> list[Envelope]:
        """Every client envelope, read as a ``TX_SUBMIT`` to ``forwarder``:
        one that was signed for another cell, or as another opcode, fails
        its ``verify()``."""
        try:
            return [
                item.envelope(forwarder, operation=Opcode.TX_SUBMIT) for item in self.transactions
            ]
        except EnvelopeError as exc:
            raise BatchError(f"malformed forwarded transaction: {exc}") from exc
