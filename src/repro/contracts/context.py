"""Execution context handed to a bContract for each invocation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

from ..crypto.keys import Address

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system.cas import ContentAddressableStorage


class BContractError(Exception):
    """Raised by bContract logic to revert the invoking transaction.

    A revert rolls back every store write the invocation made; the client
    receives a TX_ERROR reply carrying the message.
    """


@dataclass
class InvocationContext:
    """What a bContract sees about the transaction invoking it.

    ``tx_id`` is the hash of the signed client payload, identical on every
    cell, so contracts can use it for idempotence keys.  ``cas`` exposes the
    content-addressable storage system contract for blob offloading
    (Section III-D1); it is None only while the CAS contract itself is being
    invoked.
    """

    sender: Address
    tx_id: str
    timestamp: float
    cell_id: str
    cycle: int
    cas: Optional["ContentAddressableStorage"] = None
    #: Free-form metadata (e.g. whether this is a contingency transaction).
    extra: dict[str, Any] = field(default_factory=dict)

    def require_sender(self, expected: Address, action: str = "perform this action") -> None:
        """Revert unless the transaction sender is ``expected``."""
        if self.sender != expected:
            raise BContractError(f"only {expected.hex()} may {action}")
