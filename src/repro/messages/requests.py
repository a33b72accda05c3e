"""Bodies of the request opcodes whose data field is a few plain values.

The batching, membership, and cross-shard families carry signed
sub-structures and have body classes of their own
(:mod:`~repro.messages.batch`, :mod:`~repro.messages.membership`,
:mod:`~repro.messages.xshard`).  The opcodes here carry only names,
arguments, and cycle numbers — but a cell still reads them off the wire
from arbitrary senders, so each gets the same ``from_data`` parser shape
(derived from its declared fields, or ``named_call`` for the two calls
into a bContract): a typed body or a :class:`RequestError`, never a stray
``TypeError`` out of a handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from . import wire


class RequestError(ValueError):
    """Raised for a malformed request body."""


def named_call(
    raw: dict[str, Any], what: str, verb: str
) -> tuple[str, str, dict[str, Any]]:
    """The ``(contract, <verb>, args)`` triple of a call into a bContract."""
    contract, name, args = raw.get("contract"), raw.get(verb), raw.get("args", {})
    if not isinstance(contract, str) or not contract:
        raise RequestError(f"{what} does not name a target bContract")
    if not isinstance(name, str) or not name:
        raise RequestError(f"{what} does not name a {verb}")
    if not isinstance(args, dict):
        raise RequestError(f"{what} arguments must be an object")
    return contract, name, args


@dataclass(frozen=True)
class TransactionCall:
    """The data field D of a ``TX_SUBMIT`` envelope."""

    contract: str
    method: str
    args: dict[str, Any]

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "TransactionCall":
        """Parse the invocation a transaction asks for."""
        return cls(*named_call(raw, "transaction", "method"))


@dataclass(frozen=True)
class StateQuery:
    """The data field D of a ``QUERY_STATE`` envelope."""

    contract: str
    view: str
    args: dict[str, Any]

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "StateQuery":
        """Parse the read-only view a query asks for."""
        return cls(*named_call(raw, "query", "view"))


@dataclass(frozen=True)
class SubscriptionRequest(wire.Body, error=RequestError):
    """The data field D of a ``SUBSCRIBE`` envelope."""

    plan: str = wire.text(default="standard")


@dataclass(frozen=True)
class SnapshotRequest(wire.Body, error=RequestError):
    """The data field D of a ``SNAPSHOT_REQUEST``: a cycle, or the latest one."""

    #: Absent or null: the latest snapshot.
    cycle: Optional[int] = wire.optional(wire.natural)(default=None)


@dataclass(frozen=True)
class LedgerRequest(wire.Body, error=RequestError):
    """The data field D of a ``LEDGER_REQUEST``: an inclusive cycle range."""

    first_cycle: int = wire.natural(default=0)
    #: Absent: ``first_cycle``, a range of one cycle.
    last_cycle: int = wire.natural(default=None)

    def __post_init__(self) -> None:
        if self.last_cycle is None:
            object.__setattr__(self, "last_cycle", self.first_cycle)
        if self.last_cycle < self.first_cycle:
            raise RequestError(
                f"last_cycle {self.last_cycle} precedes first_cycle {self.first_cycle}"
            )


@dataclass(frozen=True)
class Pong(wire.Body, error=RequestError):
    """The data field D of a ``PONG``: the answering cell's node name."""

    node: str = wire.text()
