"""Conflict-aware parallel intra-cycle execution (the lane engine).

The paper serializes every transaction of a report cycle through the
mutex-protected storage of Section V-A.  Most transactions of a real
workload touch disjoint contract state, so this module recovers the lost
parallelism without giving up the determinism the cross-cell confirmation
protocol depends on:

* each transaction's **lane token** — its ledger sequence, its target
  contract, and the keys of that contract it reads, writes, or
  commutatively increments — is derived *before* execution from the
  target bContract's declared
  :meth:`~repro.contracts.interface.BContract.access_plan` (contracts
  without a plan fall back to an exclusive token, which is always safe);
* tokens that conflict (write/any or delta/read overlap on a key of the
  same contract) are never in flight at the same time, and conflicting
  transactions always start in canonical ledger order;
* non-conflicting transactions run concurrently on up to ``lanes``
  execution lanes — simulated concurrency inside a cell, through
  :class:`~repro.sim.resources.ConflictGate`;
* with one lane the same gate plans nothing: every token is keyless, first
  come first served, up to ``max_parallel_invocations`` at once — the
  paper's mutex-protected executor;
* after each execution the invocation's mutation journal is checked
  against the plan, and a write or increment the plan did not declare is
  counted as a *plan overrun* (:meth:`LaneScheduler.statistics`);
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
one-lane schedule, where execution order is arrival order — it cannot see
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


#: What the scheduler hands the gate: the ledger sequence (the grant order of
#: conflicting waiters), the target contract (whose keys the plan names) and
#: the contract's own declared plan — ``None`` for an exclusive token.
LaneToken = tuple[int, str, Optional[AccessSet]]

#: The access of every one-lane token: no key, so nothing to conflict on.
_KEYLESS = AccessSet()


def lane_token(entry: "LedgerEntry", registry: ContractRegistry) -> LaneToken:
    """Derive the pre-execution lane token of one admitted ledger entry.

    Never raises: anything that stops a precise plan from being built
    (malformed payload, unknown contract, a plan method that errors)
    yields an exclusive token instead.
    """
    from .executor import TransactionExecutor

    try:
        contract_name, method, args = TransactionExecutor.parse_call(entry)
        plan = registry.get(contract_name).access_plan(
            method, args, sender=entry.envelope.sender.hex(), tx_id=entry.tx_id
        )
    except Exception:  # noqa: BLE001 - exclusive is the safe fallback
        return (entry.sequence, "", None)
    return (entry.sequence, contract_name, plan)


# ----------------------------------------------------------------------
# Simulated lane scheduler (in-cell, online)
# ----------------------------------------------------------------------
class LaneScheduler:
    """The execution stage's one gate, for one simulated cell.

    Transactions request a lane as they are ready to execute.  With
    ``lanes > 1`` the :class:`~repro.sim.resources.ConflictGate` grants at
    most ``lanes`` slots, never to two conflicting tokens together, and
    conflicting waiters in canonical ledger order; with one lane every
    token is keyless and the gate is a FIFO pool of ``invocations`` slots.
    """

    def __init__(self, env: Environment, lanes: int, registry: ContractRegistry,
                 name: str = "lanes", invocations: int = 1) -> None:
        if lanes < 1:
            raise LaneError("at least one execution lane is required")
        self.lanes = lanes
        self.registry = registry
        #: Whether tokens carry access plans (more than one lane).
        self.planned = lanes > 1
        #: Entry sequence -> the token it holds or waits with.
        self._tokens: dict[int, LaneToken] = {}
        self.exclusive_fallbacks = 0
        #: Executions that wrote or incremented a key their plan did not declare.
        self.plan_overruns = 0
        self.gate = ConflictGate(
            env,
            capacity=lanes if self.planned else invocations,
            name=name,
            # Conflicting waiters enter in canonical ledger order; keyless
            # ones never conflict, so they enter in arrival order.
            order_key=itemgetter(0) if self.planned else None,
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
            token = (sequence, "", _KEYLESS)
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
