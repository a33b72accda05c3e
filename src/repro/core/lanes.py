"""Conflict-aware parallel intra-cycle execution (the lane engine).

The paper serializes every transaction of a report cycle through the
mutex-protected storage of Section V-A.  Most transactions of a real
workload touch disjoint contract state, so this module recovers the lost
parallelism without giving up the determinism the cross-cell confirmation
protocol depends on:

* each transaction's **lane token** — its :func:`entry_rank`, its target
  contract, and the keys of that contract it reads, writes, or
  commutatively increments — is derived *before* execution from the
  target bContract's declared
  :meth:`~repro.contracts.interface.BContract.access_plan` (contracts
  without a plan fall back to an exclusive token, which is always safe);
* queued transactions are granted by **rank** — ``(admission cycle,
  signed timestamp, tx id)`` — which every replica computes alike for the
  same transaction, because peers forward the client's signed envelope
  unchanged.  Overlay consensus answers a client only once *every* active
  cell has executed its transaction, so a queue served in each cell's own
  arrival order (its own clients first, forwarded work behind) makes every
  transaction wait for its place in the *other* cells' queues; one shared
  order lets the replicas of a transaction execute it at nearly the same
  instant;
* tokens that conflict (write/any or delta/read overlap on a key of the
  same contract) are never in flight at the same time, and queued
  conflicting transactions always start in rank order;
* non-conflicting transactions run concurrently on up to ``lanes``
  execution lanes — simulated concurrency inside a cell, through
  :class:`~repro.sim.resources.ConflictGate`;
* with one lane the same gate plans nothing: every token is keyless, up to
  ``max_parallel_invocations`` run at once and a freed slot goes to the
  lowest-ranked waiter — the paper's mutex-protected executor;
* after each execution the invocation's mutation journal is checked
  against the plan, and a write or increment the plan did not declare is
  counted as a *plan overrun* (:meth:`LaneScheduler.statistics`);
* ledger positions are fixed at admission, whatever order entries execute
  in, so ledgers, receipts, and per-cycle execution fingerprints are
  bit-identical to the serial schedule.

The rank's leading cycle means no entry overtakes one admitted in an
earlier report cycle: a client that backdates its signed timestamp moves
ahead only within its own admission cycle, and can neither make
conflicting transactions overlap nor make replicas order them differently.

Why this is deterministic: non-conflicting transactions *commute* — their
write sets are disjoint from each other's read/write/delta sets, so each
one reads exactly the values it would have read serially, and the store's
XOR fingerprint is order-independent for disjoint final contents.  Pure
increments of a shared key are the one sanctioned read-modify-write
overlap: their sum is order-independent, and any method whose *result*
exposes the running value must declare the key as a write instead.
Conflicting transactions never overlap.  The scheduler is *online*: it
orders grants by rank among queued waiters, at every lane count, but it
cannot see a transaction that has not arrived yet.  A workload whose
conflicting outcomes are order-sensitive (e.g. racing an account to
insolvency) is therefore still timing-dependent per cell under *every*
schedule, serial included — two such transactions queued together start
in the same order on every replica, but one that finds the other already
running on one cell and still queued on another does not; the cross-cell
fingerprint comparison is what catches any divergence, exactly as in the
paper.  For workloads whose conflicting outcomes commute (what the
access-plan discipline is designed to encourage), ledgers, receipts, and
fingerprints are identical across all lane counts and the serial
schedule — the differential suite asserts this configuration matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter
from typing import Any, Optional, TYPE_CHECKING

from ..contracts.registry import ContractRegistry
from ..contracts.state_store import AccessSet, MutationJournal
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
    """A call's contract-qualified access sets, known pre-execution.

    The sharded client's span classifier maps these qualified keys through
    the shard map (:meth:`~repro.client.sharded.ShardedClient.plan_groups`);
    the lane engine itself works on contract-local plans (:data:`LaneToken`).
    An ``exclusive`` footprint stands for a call whose keys are unknown.
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


#: The grant order of queued waiters, the same on every replica: the entry's
#: admission cycle, the client's signed timestamp and the tx id (the hash of
#: that signed payload).  Peers forward the client's envelope unchanged, so
#: each replica computes the same rank for the same transaction.
Rank = tuple[int, float, str]

#: What the scheduler hands the gate: the entry's :data:`Rank`, the target
#: contract (whose keys the plan names) and the contract's own declared
#: plan — ``None`` for an exclusive token.
LaneToken = tuple[Rank, str, Optional[AccessSet]]

#: The access of every one-lane token: no key, so nothing to conflict on.
_KEYLESS = AccessSet()


def lane_token(entry: "LedgerEntry", registry: ContractRegistry) -> LaneToken:
    """Derive the pre-execution lane token of one admitted ledger entry.

    Never raises: anything that stops a precise plan from being built
    (malformed payload, unknown contract, a plan method that errors)
    yields an exclusive token instead.
    """
    from .executor import TransactionExecutor

    rank = entry_rank(entry)
    try:
        contract_name, method, args = TransactionExecutor.parse_call(entry)
        plan = registry.get(contract_name).access_plan(
            method, args, sender=entry.envelope.sender.hex(), tx_id=entry.tx_id
        )
    except Exception:  # noqa: BLE001 - exclusive is the safe fallback
        return (rank, "", None)
    return (rank, contract_name, plan)


def entry_rank(entry: "LedgerEntry") -> Rank:
    """The replica-independent grant order of one admitted ledger entry.

    The leading cycle keeps an entry from overtaking one admitted in an
    earlier report cycle, so a client that backdates its signed timestamp
    moves only within its own admission cycle.
    """
    return (entry.cycle, entry.envelope.payload.timestamp, entry.tx_id)


# ----------------------------------------------------------------------
# Simulated lane scheduler (in-cell, online)
# ----------------------------------------------------------------------
class LaneScheduler:
    """The execution stage's one gate, for one simulated cell.

    Transactions request a lane as they are ready to execute.  With
    ``lanes > 1`` the :class:`~repro.sim.resources.ConflictGate` grants at
    most ``lanes`` slots, never to two conflicting tokens together; with
    one lane every token is keyless and the gate is a pool of
    ``invocations`` slots.  Either way queued waiters are granted in
    :func:`entry_rank` order, which every replica computes alike.
    """

    def __init__(self, env: Environment, lanes: int, registry: ContractRegistry,
                 name: str = "lanes", invocations: int = 1) -> None:
        if lanes < 1:
            raise LaneError("at least one execution lane is required")
        self.env = env
        self.lanes = lanes
        self.registry = registry
        #: Whether tokens carry access plans (more than one lane).
        self.planned = lanes > 1
        #: Entry sequence -> the token it holds or waits with.
        self._tokens: dict[int, LaneToken] = {}
        self.exclusive_fallbacks = 0
        #: Executions that wrote or incremented a key their plan did not declare.
        self.plan_overruns = 0
        #: (rank, event) of every :meth:`queue_ahead` wait, lowest rank first.
        self._ahead_waits: list[tuple[Rank, Event]] = []
        self.gate = ConflictGate(
            env,
            capacity=lanes if self.planned else invocations,
            name=name,
            order_key=itemgetter(0),
        )

    def acquire(self, entry: "LedgerEntry") -> Event:
        """Request a lane for ``entry``; the event fires on grant."""
        sequence = entry.sequence
        if sequence in self._tokens:
            raise LaneError(f"entry {sequence} already holds or awaits a lane")
        if self.planned:
            token = lane_token(entry, self.registry)
            if token[2] is None:
                self.exclusive_fallbacks += 1
        else:
            token = (entry_rank(entry), "", _KEYLESS)
        grant = self.gate.request(token)
        self._tokens[sequence] = token
        return grant

    def granted(self, entry: "LedgerEntry") -> bool:
        """Whether ``entry`` holds or awaits a lane (acquired, not yet released)."""
        return entry.sequence in self._tokens

    def release(self, entry: "LedgerEntry", journal: Optional[MutationJournal] = None) -> None:
        """Give the lane back after execution (or on failure paths).

        ``journal`` is the invocation's (None when the call never reached a
        contract); its written and incremented keys are looked up in the
        plan the lane was granted on, and an execution that mutated an
        undeclared key counts as a plan overrun.  An exclusive or keyless
        token declared nothing and cannot overrun.
        """
        token = self._tokens.pop(entry.sequence, None)
        if token is None:
            return
        plan = token[2]
        if journal is not None and plan is not None and self.planned:
            for key in chain(journal.writes, journal.deltas):
                if key not in plan.writes and key not in plan.deltas:
                    self.plan_overruns += 1
                    break
        self.gate.release(token)
        if self._ahead_waits:
            self._end_ahead_waits()

    def queue_ahead(self, entry: "LedgerEntry") -> Optional[Event]:
        """None if no transaction ranked before ``entry`` waits for a lane here.

        Otherwise an event that fires once none does.  A peer serves the
        same rank order, so the transactions still queued ahead of this one
        here are ones it has to run before this one too.
        """
        rank = entry_rank(entry)
        waiting = self.gate.waiting
        if not waiting or waiting[0][0][0] > rank:
            return None
        event = self.env.event()
        heappush(self._ahead_waits, (rank, event))
        return event

    def _end_ahead_waits(self) -> None:
        """Fire the :meth:`queue_ahead` waits no queued rank precedes any more.

        Only a release can move the wait list's lowest rank up: a request
        adds a waiter, or grants the one it adds.
        """
        waiting, waits = self.gate.waiting, self._ahead_waits
        while waits and (not waiting or waiting[0][0][0] > waits[0][0]):
            heappop(waits)[1].succeed()

    def statistics(self) -> Optional[dict[str, Any]]:
        """Lane/conflict counters for cell introspection (None with one lane, which plans nothing)."""
        if not self.planned:
            return None
        return {
            "lanes": self.lanes,
            "executions": self.gate.grants,
            "exclusive_fallbacks": self.exclusive_fallbacks,
            "plan_overruns": self.plan_overruns,
            "conflict_deferrals": self.gate.conflict_deferrals,
            "capacity_deferrals": self.gate.capacity_deferrals,
            "peak_parallel": self.gate.peak_in_use,
            "peak_queue": self.gate.peak_queue_length,
            "in_flight": self.gate.in_use,
        }
