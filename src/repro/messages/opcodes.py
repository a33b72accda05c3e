"""Operation codes of the uniform RESTful interface.

Every Blockumulus message carries an operation code ``O`` that determines
how the data field ``D`` is interpreted (Section III-C2).  The codes cover
the six communication vectors the paper lists: client-cell, cell-cell,
auditor-cell, cell-blockchain, auditor-blockchain, and client-auditor (the
last three are carried over the Ethereum provider rather than this message
layer, so only the first three appear here).  Who may send which code to a
cell, and what body it carries, is declared in :mod:`repro.core.routes`.
"""

from __future__ import annotations

from enum import Enum


class Opcode(str, Enum):
    """Operation codes for client-cell, cell-cell, and auditor-cell messages."""

    # Client -> service cell.
    TX_SUBMIT = "tx_submit"                 # invoke a bContract function
    SUBSCRIBE = "subscribe"                 # open an access subscription with a cell
    QUERY_STATE = "query_state"             # read-only bContract state query

    # Service cell -> other consortium cells.
    TX_FORWARD = "tx_forward"               # forward client transactions (a list of one or more)
    TX_CONFIRM = "tx_confirm"               # signed confirmations, executed or rejected

    # Dynamic membership (exclusion quorum + crash recovery, Section V).
    CELL_EXCLUDE = "cell_exclude"           # propose temporary exclusion of a cell
    CELL_EXCLUDE_VOTE = "cell_exclude_vote"  # signed vote on an exclusion proposal
    MEMBERSHIP_UPDATE = "membership_update"  # quorum-backed exclude/readmit commit
    CELL_REJOIN = "cell_rejoin"             # recovered cell asks to rejoin the quorum
    CELL_REJOIN_ACK = "cell_rejoin_ack"     # signed fingerprint check on a rejoin
    CELL_SYNC = "cell_sync"                 # state resync request after exclusion
    CELL_SYNC_STATE = "cell_sync_state"     # snapshot + ledger tail for a resync

    # Cross-shard two-phase commit (contract-state sharding).  The
    # coordinator (the client, or a tool acting for it) drives gateway
    # cells of the participant groups; every inner state change is an
    # ordinary client-signed transaction serviced through the group's
    # normal admit/forward/confirm pipeline.
    XSHARD_PREPARE = "xshard_prepare"       # run a participant's prepare transaction
    XSHARD_COMMIT = "xshard_commit"         # commit decision + signed vote certificate
    XSHARD_ABORT = "xshard_abort"           # abort decision (roll back prepared holds)
    XSHARD_VOTE = "xshard_vote"             # gateway's signed vote / phase acknowledgement
    XSHARD_VOUCHER = "xshard_voucher"       # one-way credit voucher mint/redeem (fast path)

    # Service cell -> client.
    TX_RECEIPT = "tx_receipt"               # aggregated multi-signature receipt
    TX_ERROR = "tx_error"                   # transaction reverted / deadline missed
    SUBSCRIBE_ACK = "subscribe_ack"
    QUERY_RESULT = "query_result"

    # Auditor <-> cell.
    SNAPSHOT_REQUEST = "snapshot_request"   # auditor downloads a data snapshot
    SNAPSHOT_RESPONSE = "snapshot_response"
    LEDGER_REQUEST = "ledger_request"       # auditor downloads the tx ledger segment
    LEDGER_RESPONSE = "ledger_response"

    # Liveness.
    PING = "ping"
    PONG = "pong"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

