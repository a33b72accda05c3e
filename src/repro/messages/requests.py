"""Bodies of the request opcodes whose data field is a few plain values.

The batching, membership, and cross-shard families carry signed
sub-structures and have body classes of their own
(:mod:`~repro.messages.batch`, :mod:`~repro.messages.membership`,
:mod:`~repro.messages.xshard`).  The opcodes here carry only names,
arguments, and cycle numbers — but a cell still reads them off the wire
from arbitrary senders, so each gets the same ``from_data`` parser shape:
a typed body or a :class:`RequestError`, never a stray ``TypeError`` out
of a handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


class RequestError(ValueError):
    """Raised for a malformed request body."""


def _cycle(raw: Any, what: str) -> int:
    """A report-cycle number: a non-negative integer (``True`` is not one)."""
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 0:
        raise RequestError(f"{what} must be a non-negative integer, not {raw!r}")
    return raw


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
    """The data field D of a ``TX_SUBMIT`` / ``DEPLOY_CONTRACT`` envelope."""

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
class SubscriptionRequest:
    """The data field D of a ``SUBSCRIBE`` envelope."""

    plan: str = "standard"

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "SubscriptionRequest":
        """Parse a subscription request (the plan name is optional)."""
        plan = raw.get("plan", "standard")
        if not isinstance(plan, str):
            raise RequestError(f"subscription plan must be a name, not {plan!r}")
        return cls(plan=plan)


@dataclass(frozen=True)
class SnapshotRequest:
    """The data field D of a ``SNAPSHOT_REQUEST``: a cycle, or the latest one."""

    cycle: Optional[int] = None

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "SnapshotRequest":
        """Parse the requested snapshot cycle (absent or null: the latest)."""
        cycle = raw.get("cycle")
        return cls(cycle=None if cycle is None else _cycle(cycle, "cycle"))


@dataclass(frozen=True)
class LedgerRequest:
    """The data field D of a ``LEDGER_REQUEST``: an inclusive cycle range."""

    first_cycle: int = 0
    last_cycle: int = 0

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "LedgerRequest":
        """Parse the cycle range (``last_cycle`` defaults to ``first_cycle``)."""
        first = _cycle(raw.get("first_cycle", 0), "first_cycle")
        last = _cycle(raw.get("last_cycle", first), "last_cycle")
        if last < first:
            raise RequestError(f"last_cycle {last} precedes first_cycle {first}")
        return cls(first_cycle=first, last_cycle=last)


@dataclass(frozen=True)
class Pong:
    """The data field D of a ``PONG``: the answering cell's node name."""

    node: str

    @classmethod
    def from_data(cls, raw: dict[str, Any]) -> "Pong":
        """Parse a liveness answer."""
        node = raw.get("node")
        if not isinstance(node, str):
            raise RequestError(f"pong must name the answering node, not {node!r}")
        return cls(node=node)
