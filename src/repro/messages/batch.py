"""The forward body of the overlay hot path.

The paper's protocol forwards every client transaction to every other
consortium cell as an individual signed message, so a burst of N
simultaneous transactions costs O(N * cells) network events (Fig. 7
steps 2-3).  A ``TX_FORWARD`` carries a list of the client envelopes
queued for one destination cell during one scheduling quantum (one, with
batching off): the outer envelope carries the forwarding cell's signature,
every inner item keeps its client's, so the receiving cell can still
authenticate each transaction independently.

Only the forward bodies live here; the confirmation batch is defined next
to :class:`repro.core.receipts.Confirmation` to avoid a layering cycle
(``core`` imports ``messages``, never the other way around).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from . import wire
from .envelope import Envelope, EnvelopeError


class BatchError(ValueError):
    """Raised for malformed batch payloads."""


@dataclass(frozen=True)
class ForwardBatch(wire.Body, error=BatchError):
    """An ordered set of client envelopes forwarded in one message.

    The batch stores the *wire forms* of the client envelopes, which is
    exactly what rides inside the outer envelope's data field; parsing and
    client-signature verification stay per-transaction on the receiver.
    """

    transactions: tuple[dict[str, Any], ...] = wire.list_of(wire.obj)()

    def __post_init__(self) -> None:
        if not self.transactions:
            raise BatchError("a forward batch must carry at least one transaction")

    def __len__(self) -> int:
        return len(self.transactions)

    @classmethod
    def of(cls, envelopes: Iterable[Envelope]) -> "ForwardBatch":
        """Build a batch from parsed client envelopes."""
        return cls(transactions=tuple(envelope.to_wire() for envelope in envelopes))

    def envelopes(self) -> list[Envelope]:
        """Parse every inner client envelope (structure check only).

        Signature verification is the receiver's job, per transaction.
        """
        try:
            return [Envelope.from_wire(raw) for raw in self.transactions]
        except (EnvelopeError, TypeError) as exc:
            raise BatchError(f"malformed forwarded transaction: {exc}") from exc


@dataclass(frozen=True)
class ForwardedTransactions(wire.Body, error=BatchError):
    """What a ``TX_FORWARD`` delivers: its client envelopes, parsed.

    The receiving cell's view of a :class:`ForwardBatch` — every inner
    envelope is structurally sound by the time a handler sees it, so one
    malformed item refuses the whole message at the ingress stage.
    """

    client_envelopes: tuple[Envelope, ...] = wire.list_of(wire.nested(Envelope))("transactions")

    def __post_init__(self) -> None:
        if not self.client_envelopes:
            raise BatchError("a forward batch must carry at least one transaction")

