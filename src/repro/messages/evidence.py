"""Portable Byzantine-fault evidence (equivocation proofs, partition events).

Two self-contained wire formats the audit layer exchanges when a
Byzantine fault is caught (Sections V-C and V-D):

* :class:`EquivocationEvidence` — two confirmations **signed by the same
  cell for the same transaction** whose payloads differ.  The pair is
  self-certifying: no reporter signature is needed, because only the
  equivocator's own key could have produced both statements.  Anyone
  holding the pair can verify the misbehaviour offline.
* :class:`PartitionEvent` — one cell's signed observation that a set of
  nodes became unreachable (or reachable again).  Unlike equivocation
  evidence it is testimony, not proof — it is signed by the *observer*
  and feeds the exclusion vote, which needs a quorum.

Neither format introduces an opcode: both ride inside existing
membership and audit payloads (exclusion proposals, audit reports) as
plain data fields, exactly like the vote certificates of
:mod:`repro.messages.xshard` ride inside 2PC decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.receipts import Confirmation
from ..crypto.keys import Address
from . import wire
from .signer import SignedStatement, Signer


class EvidenceError(ValueError):
    """Raised for malformed evidence payloads."""


@dataclass(frozen=True)
class EquivocationEvidence(wire.Body, error=EvidenceError):
    """Two same-cell, same-transaction confirmations that contradict.

    The canonical proof that a cell signed *different* payloads for the
    same logical message to different observers — the ``equivocate``
    fault of :mod:`repro.core.faults`.
    """

    first: Confirmation = wire.nested(Confirmation)()
    second: Confirmation = wire.nested(Confirmation)()

    def cell(self) -> Address:
        """The accused cell (both confirmations must name it)."""
        return self.first.cell

    def verify(self) -> bool:
        """Whether the pair actually proves an equivocation.

        Both confirmations must carry valid signatures from the *same*
        cell over the *same* transaction — and their signed payloads
        must differ (fingerprint, status, or error).  A pair about two
        different transactions, or with any invalid signature, proves
        nothing.
        """
        if self.first.cell != self.second.cell:
            return False
        if self.first.tx_id != self.second.tx_id:
            return False
        if not self.first.verify() or not self.second.verify():
            return False
        return (
            self.first.fingerprint_hex != self.second.fingerprint_hex
            or self.first.status != self.second.status
            or self.first.error != self.second.error
        )


@dataclass(frozen=True)
class PartitionEvent(SignedStatement, error=EvidenceError):
    """One cell's signed observation of a network cut (or its healing)."""

    SIGNER = "observer"

    observer: Address = wire.address()
    #: Node names observed on the unreachable side of the cut, sorted: the
    #: signature covers the member *set*.
    members: tuple[str, ...] = wire.list_of(wire.text)()
    action: str = wire.text()  # "cut" | "heal"
    at: float = wire.seconds()
    #: When the observer saw the cut heal; the sentinel ``-1.0`` means
    #: unknown (pre-extension events carry no ``healed_at`` on the wire —
    #: but the field *is* signed, so an event that carried one cannot have
    #: it stripped or altered and still verify).
    healed_at: float = wire.seconds(default=-1.0)

    ACTIONS = ("cut", "heal")

    def __post_init__(self) -> None:
        if self.action not in self.ACTIONS:
            raise EvidenceError(
                f"partition event action must be one of {list(self.ACTIONS)}, "
                f"got {self.action!r}"
            )
        if not self.members:
            raise EvidenceError("a partition event names at least one member")

    @classmethod
    def create(
        cls,
        signer: Signer,
        members: tuple[str, ...] | list[str],
        action: str,
        at: float,
        healed_at: float = -1.0,
    ) -> "PartitionEvent":
        """Build and sign an event on behalf of ``signer``."""
        return cls._signed(
            signer, members=tuple(sorted(members)), action=action, at=at, healed_at=healed_at
        )
