"""What a cell answers: every reply body, declared once.

A response is the same signed payload tuple as a request (Section III-C2),
and its opcode alone decides how the data field is read.  The bodies of the
opcodes a cell emits in answer to clients and auditors are declared here
on the wire codec (:mod:`repro.messages.wire`) — all but a ``TX_RECEIPT``'s,
which is the :class:`~repro.core.receipts.CompactReceipt` itself: the cell
and the gateway build them and send ``to_data()``, and every requester
reads them through :func:`repro.core.routes.read_reply`, which looks the
class up in :data:`repro.core.routes.REPLIES`.  (What cells answer *each
other* — a vote, an ack, a resync bundle, a ``PONG`` — is a routed opcode
whose body the ingress stage parses like any request's.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..crypto.keys import Address
from ..messages import wire
from ..messages.membership import LedgerRecord
from ..messages.xshard import CrossShardVote
from .receipts import CompactReceipt
from .snapshot import DataSnapshot


class ReplyError(ValueError):
    """A request got no usable answer: silence, a refusal, or a malformed reply.

    ``refusal`` is the cell's ``TX_ERROR`` body when it answered with one
    (the message is then the cell's own words), None otherwise.
    """

    def __init__(self, message: str, refusal: Optional["ErrorReply"] = None) -> None:
        super().__init__(message)
        self.refusal = refusal


@dataclass(frozen=True)
class ErrorReply(wire.Body, error=ReplyError, what="refusal"):
    """``TX_ERROR``: why the request was not served, and what is known about it."""

    error: str = wire.text()
    tx_id: Optional[str] = wire.text(omit_none=True, default=None)
    xtx: Optional[str] = wire.text(omit_none=True, default=None)
    #: Hex addresses of the peers whose confirmation never came, and of
    #: those that confirmed another fingerprint (a reverted transaction).
    missing_cells: Optional[tuple[str, ...]] = wire.list_of(wire.text)(
        omit_none=True, default=None
    )
    mismatched_cells: Optional[tuple[str, ...]] = wire.list_of(wire.text)(
        omit_none=True, default=None
    )
    #: True when admission control refused the arrival before any work.
    shed: Optional[bool] = wire.flag(omit_none=True, default=None)


@dataclass(frozen=True)
class SubscriptionAck(wire.Body, error=ReplyError):
    """``SUBSCRIBE_ACK``: the access subscription a cell opened."""

    cell: Address = wire.address()
    opened_at: float = wire.number()
    price_per_mbyte: float = wire.number()


@dataclass(frozen=True)
class QueryResult(wire.Body, error=ReplyError):
    """``QUERY_RESULT``: what a read-only view returned."""

    result: Any = wire.anything()


@dataclass(frozen=True)
class VoteReply(wire.Body, error=ReplyError):
    """``XSHARD_VOTE``: a gateway's signed vote on one 2PC phase.

    ``receipt`` is the inner transaction's, compact as the data field of a
    ``TX_RECEIPT`` (the coordinator signed that transaction); ``error``
    says why a no-vote was cast.
    """

    vote: CrossShardVote = wire.nested(CrossShardVote)()
    receipt: Optional[CompactReceipt] = wire.nested(CompactReceipt)(
        omit_none=True, default=None
    )
    error: Optional[str] = wire.text(omit_none=True, default=None)


@dataclass(frozen=True)
class VoucherReply(wire.Body, error=ReplyError):
    """``XSHARD_VOUCHER`` as a reply: a voucher leg the gateway completed.

    ``minted`` carries the voucher's signature: the client that signed the
    mint call rebuilds the :class:`~repro.messages.xshard.CrossShardVoucher`
    from that call and the gateway it asked.  ``redeemed`` is flagged
    ``duplicate`` where the registry already held the redemption
    (acknowledged, never credited twice).  ``receipt`` is the inner
    transaction's, as in :class:`VoteReply`, which also states the
    cross-shard transaction.
    """

    phase: str = wire.text()
    signature: Optional[bytes] = wire.signature(omit_none=True, default=None)
    #: True, or None: only a duplicate redemption is flagged.
    duplicate: Optional[bool] = wire.flag(omit_none=True, default=None)
    receipt: Optional[CompactReceipt] = wire.nested(CompactReceipt)(
        omit_none=True, default=None
    )

    def __post_init__(self) -> None:
        if self.phase not in ("minted", "redeemed"):
            raise ReplyError(f"unknown voucher reply phase {self.phase!r}")
        if (self.phase == "minted") != (self.signature is not None):
            raise ReplyError("a minted reply, and only one, carries the voucher's signature")
        if self.duplicate is False:
            raise ReplyError("only a duplicate redemption is flagged")


@dataclass(frozen=True)
class SnapshotResponse(wire.Body, error=ReplyError):
    """``SNAPSHOT_RESPONSE``: one retained data snapshot, state export included."""

    snapshot: DataSnapshot = wire.nested(DataSnapshot)()


@dataclass(frozen=True)
class LedgerResponse(wire.Body, error=ReplyError):
    """``LEDGER_RESPONSE``: the ledger entries of an inclusive cycle range."""

    first_cycle: int = wire.natural()
    last_cycle: int = wire.natural()
    entries: tuple[LedgerRecord, ...] = wire.list_of(wire.nested(LedgerRecord))()
