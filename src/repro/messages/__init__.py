"""The uniform RESTful message layer of Blockumulus (Section III-C2)."""

from .batch import BatchError, ForwardBatch
from .envelope import Envelope, EnvelopeError, NonceFactory
from .evidence import EquivocationEvidence, EvidenceError, PartitionEvent
from .membership import (
    ExclusionProposal,
    ExclusionVote,
    MembershipError,
    MembershipUpdate,
    RejoinAck,
    RejoinRequest,
    SyncRequest,
    SyncState,
)
from .opcodes import Opcode
from .payload import Payload, PayloadError
from .signer import EcdsaSigner, SimulatedSigner, Signer, verify_signature
from .xshard import (
    CrossShardDecision,
    CrossShardError,
    CrossShardPrepare,
    CrossShardVote,
    CrossShardVoucher,
    CrossShardVoucherTransfer,
)

__all__ = [
    "BatchError",
    "CrossShardDecision",
    "CrossShardError",
    "CrossShardPrepare",
    "CrossShardVote",
    "CrossShardVoucher",
    "CrossShardVoucherTransfer",
    "EcdsaSigner",
    "Envelope",
    "EnvelopeError",
    "EquivocationEvidence",
    "EvidenceError",
    "ExclusionProposal",
    "ExclusionVote",
    "ForwardBatch",
    "MembershipError",
    "MembershipUpdate",
    "NonceFactory",
    "Opcode",
    "PartitionEvent",
    "Payload",
    "PayloadError",
    "RejoinAck",
    "RejoinRequest",
    "SimulatedSigner",
    "Signer",
    "SyncRequest",
    "SyncState",
    "verify_signature",
]
