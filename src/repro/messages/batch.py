"""Batch envelopes for the overlay hot path.

The paper's protocol forwards every client transaction to every other
consortium cell as an individual signed message, so a burst of N
simultaneous transactions costs O(N * cells) network events (Fig. 7
steps 2-3).  The batched pipeline coalesces all forwards queued for the
same destination cell during one scheduling quantum into a single signed
*batch envelope*: the outer envelope carries the forwarding cell's
signature, while every inner item keeps the original client signature, so
the receiving cell can still authenticate each transaction independently.

Only the forward bodies live here; the confirmation batch is built from
:class:`repro.core.receipts.Confirmation` objects and is defined next to
them to avoid a layering cycle (``core`` imports ``messages``, never the
other way around).
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

        Signature verification is the receiver's job, per transaction, just
        as for singleton ``TX_FORWARD`` messages.
        """
        try:
            return [Envelope.from_wire(raw) for raw in self.transactions]
        except (EnvelopeError, TypeError) as exc:
            raise BatchError(f"malformed forwarded transaction: {exc}") from exc


@dataclass(frozen=True)
class ForwardedTransactions(wire.Body, error=BatchError):
    """What a ``TX_FORWARD_BATCH`` delivers: its client envelopes, parsed.

    The receiving cell's view of a :class:`ForwardBatch` — every inner
    envelope is structurally sound by the time a handler sees it, so one
    malformed item refuses the whole message at the ingress stage.
    """

    client_envelopes: tuple[Envelope, ...] = wire.list_of(wire.nested(Envelope))("transactions")

    def __post_init__(self) -> None:
        if not self.client_envelopes:
            raise BatchError("a forward batch must carry at least one transaction")


@dataclass(frozen=True)
class SingleForward(ForwardedTransactions):
    """What a per-transaction ``TX_FORWARD`` delivers: a batch of one."""

    client_envelopes: tuple[Envelope, ...] = wire.single(wire.nested(Envelope))("client_envelope")
