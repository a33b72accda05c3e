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
from typing import Any

from ..core.receipts import Confirmation, ReceiptError
from ..crypto.keys import Address
from .signer import SignedStatement, Signer, verify_signature


class EvidenceError(ValueError):
    """Raised for malformed evidence payloads."""


@dataclass(frozen=True)
class EquivocationEvidence:
    """Two same-cell, same-transaction confirmations that contradict.

    The canonical proof that a cell signed *different* payloads for the
    same logical message to different observers — the ``equivocate``
    fault of :mod:`repro.core.faults`.
    """

    first: Confirmation
    second: Confirmation

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

    def to_data(self) -> dict[str, Any]:
        """JSON-serializable form (embedded in membership/audit payloads)."""
        return {
            "first": self.first.to_wire(),
            "second": self.second.to_wire(),
        }

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "EquivocationEvidence":
        """Inverse of :meth:`to_data` (shape-validates, see :meth:`verify`)."""
        try:
            return cls(
                first=Confirmation.from_wire(raw["first"]),
                second=Confirmation.from_wire(raw["second"]),
            )
        except (KeyError, TypeError, ReceiptError) as exc:
            raise EvidenceError(f"malformed equivocation evidence: {exc}") from exc


@dataclass(frozen=True)
class PartitionEvent(SignedStatement):
    """One cell's signed observation of a network cut (or its healing)."""

    observer: Address
    #: Node names observed on the unreachable side of the cut.
    members: tuple[str, ...]
    action: str  # "cut" | "heal"
    at: float
    #: When the observer saw the cut heal; the sentinel ``-1.0`` means
    #: unknown (pre-extension events carry no ``healed_at`` on the wire).
    healed_at: float = -1.0

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
        return cls(
            observer=signer.address,
            members=tuple(members),
            action=action,
            at=at,
            signature=b"",
            scheme=signer.scheme,
            healed_at=healed_at,
        )._signed_by(signer)

    def _signed_fields(self) -> dict[str, Any]:
        return {
            "observer": self.observer.hex(),
            "members": sorted(self.members),
            "action": self.action,
            "at": round(float(self.at), 6),
            "healed_at": round(float(self.healed_at), 6),
        }

    def verify(self) -> bool:
        """Check the observer's signature over the event body."""
        return verify_signature(self.scheme, self.observer, self.body(), self.signature)

    def to_wire(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "observer": self.observer.hex(),
            "members": list(self.members),
            "action": self.action,
            "at": round(float(self.at), 6),
            "healed_at": round(float(self.healed_at), 6),
            "signature": "0x" + self.signature.hex(),
            "scheme": self.scheme,
        }

    @classmethod
    def from_wire(cls, raw: dict[str, Any]) -> "PartitionEvent":
        """Inverse of :meth:`to_wire`.

        Tolerates pre-extension wire forms without ``healed_at`` (the
        unknown sentinel) — but the field *is* signed, so an event that
        carried one cannot have it stripped or altered and still verify.
        """
        try:
            return cls(
                observer=Address.from_hex(raw["observer"]),
                members=tuple(raw["members"]),
                action=raw["action"],
                at=float(raw["at"]),
                healed_at=float(raw.get("healed_at", -1.0)),
                signature=cls.signature_from_wire(raw),
                scheme=raw.get("scheme", "ecdsa"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise EvidenceError(f"malformed partition event: {exc}") from exc
