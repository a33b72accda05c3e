"""The cell's route table: every opcode of the uniform interface, declared once.

The opcode ``O`` alone decides how the data field ``D`` is read
(Section III-C2), and authentication is the first step of serving anything
(Section III-D3).  That policy — who may say what to a cell, and what
happens to a message before a handler runs — is written down here and
nowhere else: :data:`ROUTES` has one row per opcode a cell *serves*,
:data:`REPLIES` one per opcode it *answers with* (the ones it never serves
are :data:`REPLY_ONLY`).  The ingress stage of
:class:`~repro.core.cell.BlockumulusCell` reads the row and runs
slot → auth delay → ``verify()`` → sender class → body parser → handler, so
handlers start from an authenticated envelope and a typed body; requesters
read what comes back through :func:`read_reply`.  The three opcodes that
travel unsigned, because their reader checks every signature they carry
and the link they arrive on names their sender, are :data:`UNSIGNED`.
The static analyzer
(``PROTO001``/``PROTO002``) and the opcode reference in
``docs/ARCHITECTURE.md`` read the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from ..messages import wire
from ..messages.batch import ForwardedTransactions
from ..messages.envelope import Envelope
from ..messages.membership import (
    ExclusionProposal,
    ExclusionVote,
    MembershipUpdate,
    RejoinAck,
    RejoinRequest,
    SyncRequest,
    SyncState,
)
from ..messages.opcodes import Opcode
from ..messages.requests import (
    LedgerRequest,
    Pong,
    SnapshotRequest,
    StateQuery,
    SubscriptionRequest,
    TransactionCall,
)
from ..messages.xshard import (
    CrossShardDecision,
    CrossShardPrepare,
    CrossShardVoucherTransfer,
)
from .receipts import CompactReceipt, ConfirmationBatch
from .replies import (
    ErrorReply,
    LedgerResponse,
    QueryResult,
    ReplyError,
    SnapshotResponse,
    SubscriptionAck,
    VoteReply,
    VoucherReply,
)


class Sender(Enum):
    """Who may originate a routed opcode (checked after the signature).

    Whoever it is, the envelope must be addressed to the receiving cell.
    """

    CLIENT = "client"  # any identity
    CELL = "cell"      # a member of the consortium (unsigned: over that member's link)
    ANYONE = "anyone"  # any identity: auditors and liveness probes


class Admission(Enum):
    """How admission control treats a request that costs a confirmation round.

    Decisions complete a transaction whose funds are already held, and the
    timeout contingencies expect them to land eventually.  Everything else
    is new work — shedding a prepare before any escrow hold exists simply
    aborts the cross-shard transaction (the coordinator reads the TX_ERROR
    as a no-vote), a shed mint fails the transfer before any value moves,
    and a shed redeem behaves exactly like a lost voucher (the value stays
    in transit until the source holder reclaims it).
    """

    SHEDDABLE = "sheddable"    # new work: holds an inflight slot, or is shed as OVERLOADED
    NEVER_SHED = "never-shed"  # a decision: takes no slot and is never refused for load


@dataclass(frozen=True)
class Refusal:
    """What the ingress stage does with a message it must not serve."""

    auth_counter: str       # ticked for a bad signature or a sender of the wrong class
    malformed_counter: str  # ticked for a data field the body parser rejects
    answered: bool          # a TX_ERROR goes back to the sender; otherwise a silent drop


# Whoever waits for a reply is told why there is none; cell-to-cell traffic
# is dropped silently, so a forged message cannot make a cell emit anything.
ANSWER_CLIENT = Refusal("auth_failures", "malformed_messages", answered=True)
ANSWER_AUDITOR = Refusal("auditor_auth_failures", "malformed_messages", answered=True)
DROP_FORWARD = Refusal("forward_auth_failures", "malformed_forwards", answered=False)
DROP_CONFIRMATION = Refusal(
    "confirm_auth_failures", "malformed_confirmations", answered=False
)
DROP_MEMBERSHIP = Refusal("membership_auth_failures", "malformed_membership", answered=False)


@dataclass(frozen=True)
class Route:
    """One served opcode: who may send it and what runs before its handler."""

    sender: Sender
    #: The class whose ``from_data`` turns ``D`` into the handler's typed
    #: body, raising a ``ValueError`` subclass for a malformed one (looked
    #: up per message, so a tracer that wraps ``from_data`` sees the call).
    body: Optional[type[Any]]
    #: Attribute path from the cell to ``handler(src_node, envelope, body)``.
    handler: str
    refusal: Refusal
    #: True: served in a process of its own that first pays the sampled
    #: authentication delay.  False: handled synchronously on delivery.
    delayed: bool = True
    admission: Optional[Admission] = None


ROUTES: dict[Opcode, Route] = {
    # Client -> service cell.  The XSHARD_* requests are served by the
    # one cell per group that holds the gateway role.
    Opcode.TX_SUBMIT: Route(Sender.CLIENT, TransactionCall, "service._serve_submission",
                            ANSWER_CLIENT, admission=Admission.SHEDDABLE),
    Opcode.SUBSCRIBE: Route(Sender.CLIENT, SubscriptionRequest, "read._serve_subscription",
                            ANSWER_CLIENT),
    Opcode.QUERY_STATE: Route(Sender.CLIENT, StateQuery, "read._serve_query", ANSWER_CLIENT),
    Opcode.XSHARD_PREPARE: Route(Sender.CLIENT, CrossShardPrepare, "_serve_xshard",
                                 ANSWER_CLIENT, admission=Admission.SHEDDABLE),
    Opcode.XSHARD_COMMIT: Route(Sender.CLIENT, CrossShardDecision, "_serve_xshard",
                                ANSWER_CLIENT, admission=Admission.NEVER_SHED),
    Opcode.XSHARD_ABORT: Route(Sender.CLIENT, CrossShardDecision, "_serve_xshard",
                               ANSWER_CLIENT, admission=Admission.NEVER_SHED),
    Opcode.XSHARD_VOUCHER: Route(Sender.CLIENT, CrossShardVoucherTransfer, "_serve_xshard",
                                 ANSWER_CLIENT, admission=Admission.SHEDDABLE),
    # Service cell -> the other consortium cells, and their answers.
    Opcode.TX_FORWARD: Route(Sender.CELL, ForwardedTransactions, "peer._serve_forwards",
                             DROP_FORWARD),
    Opcode.TX_CONFIRM: Route(Sender.CELL, ConfirmationBatch, "service._accept_confirmations",
                             DROP_CONFIRMATION, delayed=False),
    # Dynamic membership and crash recovery (Section V).
    Opcode.CELL_EXCLUDE: Route(Sender.CELL, ExclusionProposal, "membership.handle_proposal",
                               DROP_MEMBERSHIP),
    Opcode.CELL_EXCLUDE_VOTE: Route(Sender.CELL, ExclusionVote, "membership.handle_vote",
                                    DROP_MEMBERSHIP, delayed=False),
    Opcode.MEMBERSHIP_UPDATE: Route(Sender.CELL, MembershipUpdate, "membership.handle_update",
                                    DROP_MEMBERSHIP, delayed=False),
    Opcode.CELL_REJOIN: Route(Sender.CELL, RejoinRequest, "membership.handle_rejoin",
                              DROP_MEMBERSHIP),
    Opcode.CELL_REJOIN_ACK: Route(Sender.CELL, RejoinAck, "membership.resolve_reply",
                                  DROP_MEMBERSHIP, delayed=False),
    Opcode.CELL_SYNC: Route(Sender.CELL, SyncRequest, "recovery._serve_sync", DROP_MEMBERSHIP),
    Opcode.CELL_SYNC_STATE: Route(Sender.CELL, SyncState, "membership.resolve_reply",
                                  DROP_MEMBERSHIP, delayed=False),
    # Auditor -> cell.
    Opcode.SNAPSHOT_REQUEST: Route(Sender.ANYONE, SnapshotRequest, "read._serve_snapshot_request",
                                   ANSWER_AUDITOR),
    Opcode.LEDGER_REQUEST: Route(Sender.ANYONE, LedgerRequest, "read._serve_ledger_request",
                                 ANSWER_AUDITOR),
    # Liveness.  Anyone may probe a cell; only a consortium cell's answer
    # can vouch for a suspect in an exclusion vote.
    Opcode.PING: Route(Sender.ANYONE, None, "read._serve_ping", DROP_MEMBERSHIP, delayed=False),
    Opcode.PONG: Route(Sender.CELL, Pong, "membership.resolve_reply",
                       DROP_MEMBERSHIP, delayed=False),
}

#: What a cell answers a client or an auditor with: the class that builds
#: and parses the data field of each reply opcode.
REPLIES: dict[Opcode, type[wire.Body]] = {
    Opcode.TX_RECEIPT: CompactReceipt,
    Opcode.TX_ERROR: ErrorReply,
    Opcode.SUBSCRIBE_ACK: SubscriptionAck,
    Opcode.QUERY_RESULT: QueryResult,
    Opcode.XSHARD_VOTE: VoteReply,
    Opcode.XSHARD_VOUCHER: VoucherReply,  # a request on its way in, see ROUTES
    Opcode.SNAPSHOT_RESPONSE: SnapshotResponse,
    Opcode.LEDGER_RESPONSE: LedgerResponse,
}

#: Opcodes a cell emits and never serves; one arriving at a cell is counted
#: as ``unhandled_<opcode>`` and dropped.
REPLY_ONLY: frozenset[Opcode] = frozenset(REPLIES) - frozenset(ROUTES)

#: Opcodes that travel unsigned, and so without their sender: the link a
#: message arrives on names it (the connection a REST request is answered
#: on), which is all the envelope's signature would add to what its reader
#: checks.  A cell takes a ``TX_FORWARD`` or a ``TX_CONFIRM`` only over the
#: link to the cell it names, verifies each forwarded transaction under its
#: client's signature and each confirmation under the cell's own; a client
#: takes a ``TX_RECEIPT`` only over the link to the cell it asked, and
#: checks every co-signer.
UNSIGNED: frozenset[Opcode] = frozenset(
    {Opcode.TX_FORWARD, Opcode.TX_CONFIRM, Opcode.TX_RECEIPT}
)


def travels_signed(opcode: Opcode) -> bool:
    """Whether a message sent as ``opcode`` is signed (every one not :data:`UNSIGNED`)."""
    return opcode not in UNSIGNED


def read_reply(reply: Optional[Envelope], expected: Opcode, silence: str = "no reply") -> Any:
    """The typed body of the ``expected`` reply, or :class:`ReplyError`.

    ``reply`` is what a request's waiter fired with: None (``silence``
    says what that means to the requester) or the envelope of the cell
    that was asked.  A ``TX_ERROR`` is raised in the cell's own words with
    its body attached, any other opcode as unexpected, and a data field
    the declared class refuses, in whatever family's error, as malformed.
    Nothing is read leniently.
    """
    if reply is None:
        raise ReplyError(silence)
    if reply.operation is Opcode.TX_ERROR:
        refusal = ErrorReply.from_data(reply.data)
        raise ReplyError(refusal.error, refusal)
    if reply.operation is not expected:
        raise ReplyError(f"unexpected reply {reply.operation.value}")
    try:
        return REPLIES[expected].from_data(reply.data)
    except ValueError as exc:  # every body family's error is one
        raise ReplyError(str(exc)) from exc
