"""The uniform RESTful message layer of Blockumulus (Section III-C2).

Every message is an :class:`Envelope` — a :class:`Payload` tuple plus the
sender's signature — whose data field ``D`` has an opcode-specific body.
Each body class declares its wire fields once (:mod:`~repro.messages.wire`);
the wire form, the bytes a signed statement covers and a strict parser are
all derived from that declaration.
"""

from .batch import BatchError, ForwardBatch
from .envelope import Envelope, EnvelopeError, NonceFactory
from .membership import (
    EntrySummary,
    ExclusionProposal,
    ExclusionVote,
    LedgerRecord,
    MembershipError,
    MembershipUpdate,
    RejoinAck,
    RejoinRequest,
    ReplayEntry,
    SnapshotBasis,
    SyncEntry,
    SyncRequest,
    SyncState,
)
from .opcodes import Opcode
from .payload import Payload, PayloadError
from .signer import EcdsaSigner, SimulatedSigner, Signer, verify_signature
from .xshard import (
    CompactVoucher,
    CrossShardDecision,
    CrossShardError,
    CrossShardPrepare,
    CrossShardVote,
    CrossShardVoucher,
    CrossShardVoucherTransfer,
)

__all__ = [
    "BatchError",
    "CompactVoucher",
    "CrossShardDecision",
    "CrossShardError",
    "CrossShardPrepare",
    "CrossShardVote",
    "CrossShardVoucher",
    "CrossShardVoucherTransfer",
    "EcdsaSigner",
    "Envelope",
    "EntrySummary",
    "EnvelopeError",
    "ExclusionProposal",
    "ExclusionVote",
    "ForwardBatch",
    "LedgerRecord",
    "MembershipError",
    "MembershipUpdate",
    "NonceFactory",
    "Opcode",
    "Payload",
    "PayloadError",
    "RejoinAck",
    "RejoinRequest",
    "ReplayEntry",
    "SimulatedSigner",
    "Signer",
    "SnapshotBasis",
    "SyncEntry",
    "SyncRequest",
    "SyncState",
    "verify_signature",
]
