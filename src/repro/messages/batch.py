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

from .envelope import Envelope, EnvelopeError


class BatchError(ValueError):
    """Raised for malformed batch payloads."""


@dataclass(frozen=True)
class ForwardBatch:
    """An ordered set of client envelopes forwarded in one message.

    The batch stores the *wire forms* of the client envelopes, which is
    exactly what rides inside the outer envelope's data field; parsing and
    client-signature verification stay per-transaction on the receiver.
    """

    transactions: tuple[dict[str, Any], ...]

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

    def to_data(self) -> dict[str, Any]:
        """The data field D of a ``TX_FORWARD_BATCH`` envelope."""
        return {"transactions": list(self.transactions)}

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "ForwardBatch":
        """Rebuild a batch from an envelope's data field."""
        transactions = raw.get("transactions")
        if not isinstance(transactions, list) or not transactions:
            raise BatchError("forward batch carries no transaction list")
        if not all(isinstance(item, dict) for item in transactions):
            raise BatchError("every forwarded transaction must be a wire-form object")
        return cls(transactions=tuple(transactions))


@dataclass(frozen=True)
class ForwardedTransactions:
    """What a ``TX_FORWARD_BATCH`` delivers: its client envelopes, parsed.

    The receiving cell's view of a :class:`ForwardBatch` — every inner
    envelope is structurally sound by the time a handler sees it, so one
    malformed item refuses the whole message at the ingress stage.
    """

    client_envelopes: tuple[Envelope, ...]

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "ForwardedTransactions":
        """Parse a batch envelope's data field down to its client envelopes."""
        return cls(tuple(ForwardBatch.from_data(raw).envelopes()))


class SingleForward(ForwardedTransactions):
    """What a per-transaction ``TX_FORWARD`` delivers: a batch of one."""

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "SingleForward":
        """Parse the one client envelope a singleton forward carries."""
        wire = raw.get("client_envelope")
        if not isinstance(wire, dict):
            raise BatchError("forward carries no client envelope")
        return cls(tuple(ForwardBatch(transactions=(wire,)).envelopes()))
