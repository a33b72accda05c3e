"""Conflict-aware parallel intra-cycle execution (the lane engine).

The paper serializes every transaction of a report cycle through the
mutex-protected storage of Section V-A.  Most transactions of a real
workload touch disjoint contract state, so this module recovers the lost
parallelism without giving up the determinism the cross-cell confirmation
protocol depends on:

* each transaction's **access footprint** — the contract-qualified keys it
  reads, writes, or commutatively increments — is derived *before*
  execution from the target bContract's declared
  :meth:`~repro.contracts.interface.BContract.access_plan` (contracts
  without a plan fall back to a globally exclusive footprint, which is
  always safe);
* footprints that conflict (write/any or delta/read overlap) are never in
  flight at the same time, and conflicting transactions always start in
  canonical ledger order;
* non-conflicting transactions run concurrently on up to ``lanes``
  execution lanes — simulated concurrency inside a cell, through
  :class:`~repro.sim.resources.ConflictGate`;
* results are committed to the ledger in canonical sequence order, so
  ledgers, receipts, and per-cycle execution fingerprints are bit-identical
  to the serial schedule.

Why this is deterministic: non-conflicting transactions *commute* — their
write sets are disjoint from each other's read/write/delta sets, so each
one reads exactly the values it would have read serially, and the store's
XOR fingerprint is order-independent for disjoint final contents.  Pure
increments of a shared key are the one sanctioned read-modify-write
overlap: their sum is order-independent, and any method whose *result*
exposes the running value must declare the key as a write instead.
Conflicting transactions never overlap.  The scheduler is *online*: it
orders conflicting grants canonically among queued waiters, but — like the
legacy serial path, where execution order is arrival order — it cannot see
a conflicting transaction that has not arrived yet.  A workload whose
conflicting outcomes are order-sensitive (e.g. racing an account to
insolvency) is therefore timing-dependent per cell under *every* schedule,
serial included; the cross-cell fingerprint comparison is what catches any
divergence, exactly as in the paper.  For workloads whose conflicting outcomes commute (what the
access-plan discipline is designed to encourage), ledgers, receipts, and
fingerprints are identical across all lane counts and the serial
schedule — the differential suite asserts this configuration matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Optional, TYPE_CHECKING

from ..contracts.registry import ContractRegistry
from ..contracts.state_store import AccessSet, access_sets_conflict
from ..sim.environment import Environment
from ..sim.events import Event
from ..sim.resources import ConflictGate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ledger import LedgerEntry


class LaneError(Exception):
    """Raised for invalid lane-engine operations."""


#: A store key qualified by the contract that owns it.
QualifiedKey = tuple[str, str]


@dataclass(frozen=True)
class AccessFootprint:
    """A transaction's contract-qualified access sets, known pre-execution.

    ``exclusive`` footprints (unknown contracts, undeclared access plans,
    malformed calls) conflict with everything, which degrades those
    transactions to the serial schedule instead of risking a divergent
    interleaving.
    """

    reads: frozenset[QualifiedKey] = frozenset()
    writes: frozenset[QualifiedKey] = frozenset()
    deltas: frozenset[QualifiedKey] = frozenset()
    exclusive: bool = False

    @classmethod
    def exclusive_footprint(cls) -> "AccessFootprint":
        """The footprint that serializes against every other transaction."""
        return cls(exclusive=True)

    @classmethod
    def from_access_set(cls, contract: str, access: AccessSet) -> "AccessFootprint":
        """Qualify a contract-local access set with the contract's name."""
        return cls(
            reads=frozenset((contract, key) for key in access.reads),
            writes=frozenset((contract, key) for key in access.writes),
            deltas=frozenset((contract, key) for key in access.deltas),
        )

    def conflicts_with(self, other: "AccessFootprint") -> bool:
        """Whether the two transactions must not run concurrently."""
        if self.exclusive or other.exclusive:
            return True
        return access_sets_conflict(
            self.reads, self.writes, self.deltas,
            other.reads, other.writes, other.deltas,
        )


#: What the scheduler hands the gate: a ledger sequence (the grant order of
#: conflicting waiters) and the footprint that decides compatibility.
LaneToken = tuple[int, AccessFootprint]


def _may_share_lanes(a: LaneToken, b: LaneToken) -> bool:
    """Gate predicate: tokens may hold lanes together iff they don't conflict."""
    return not a[1].conflicts_with(b[1])


def footprint_for_entry(entry: "LedgerEntry", registry: ContractRegistry) -> AccessFootprint:
    """Derive the pre-execution footprint of one admitted ledger entry.

    Never raises: anything that stops a precise plan from being built
    (malformed payload, unknown contract, a plan method that errors)
    yields the exclusive footprint instead.
    """
    from .executor import TransactionExecutor

    try:
        contract_name, method, args = TransactionExecutor.parse_call(entry)
        contract = registry.get(contract_name)
        plan = contract.access_plan(
            method, args, sender=entry.envelope.sender.hex(), tx_id=entry.tx_id
        )
    except Exception:  # noqa: BLE001 - exclusive is the safe fallback
        return AccessFootprint.exclusive_footprint()
    if plan is None:
        return AccessFootprint.exclusive_footprint()
    return AccessFootprint.from_access_set(contract_name, plan)


# ----------------------------------------------------------------------
# Simulated lane scheduler (in-cell, online)
# ----------------------------------------------------------------------
class LaneScheduler:
    """Online conflict-aware lane admission for one simulated cell.

    Transactions request a lane as they are ready to execute; the
    underlying :class:`~repro.sim.resources.ConflictGate` grants at most
    ``lanes`` slots, never lets two conflicting footprints hold slots
    together, and biases conflicting grants toward canonical ledger order
    (waiters are kept ordered by sequence).
    """

    def __init__(self, env: Environment, lanes: int, registry: ContractRegistry,
                 name: str = "lanes") -> None:
        if lanes < 1:
            raise LaneError("at least one execution lane is required")
        self.lanes = lanes
        self.registry = registry
        self._tokens: dict[int, LaneToken] = {}
        self._lane_of: dict[int, int] = {}
        #: Min-heap of the lane indices not currently held (lowest granted first).
        self._free_lanes = list(range(lanes))
        self.executions = 0
        self.exclusive_fallbacks = 0
        self.gate = ConflictGate(
            env,
            capacity=lanes,
            compatible=_may_share_lanes,
            name=name,
            order_key=itemgetter(0),  # the canonical ledger sequence
        )

    def acquire(self, entry: "LedgerEntry") -> Event:
        """Request a lane for ``entry``; the event fires on grant."""
        footprint = footprint_for_entry(entry, self.registry)
        if footprint.exclusive:
            self.exclusive_fallbacks += 1
        token = (entry.sequence, footprint)
        if entry.sequence in self._tokens:
            raise LaneError(f"entry {entry.sequence} already holds or awaits a lane")
        self._tokens[entry.sequence] = token
        return self.gate.request(token)

    def granted(self, entry: "LedgerEntry") -> int:
        """Record the grant (after the acquire event fired); returns the lane.

        Lanes are allocated from the free set, so a lane index uniquely
        identifies one of the concurrently running invocations.
        """
        if not self._free_lanes:
            raise LaneError("lane granted with no free lane (release mismatch)")
        lane = heappop(self._free_lanes)
        self._lane_of[entry.sequence] = lane
        self.executions += 1
        return lane

    def lane_of(self, entry: "LedgerEntry") -> Optional[int]:
        """The lane index granted to ``entry`` (informational)."""
        return self._lane_of.get(entry.sequence)

    def release(self, entry: "LedgerEntry") -> None:
        """Give the lane back after execution (or on failure paths)."""
        token = self._tokens.pop(entry.sequence, None)
        if token is None:
            return
        lane = self._lane_of.pop(entry.sequence, None)
        if lane is not None:
            heappush(self._free_lanes, lane)
        self.gate.release(token)

    def statistics(self) -> dict[str, Any]:
        """Operational lane/conflict counters for cell introspection."""
        return {
            "lanes": self.lanes,
            "executions": self.executions,
            "exclusive_fallbacks": self.exclusive_fallbacks,
            "conflict_deferrals": self.gate.conflict_deferrals,
            "capacity_deferrals": self.gate.capacity_deferrals,
            "peak_parallel": self.gate.peak_in_use,
            "peak_queue": self.gate.peak_queue_length,
            "in_flight": self.gate.in_use,
        }
