"""Capacity-constrained resources for the simulation kernel.

A :class:`Resource` models a pool of identical servers (for Blockumulus: a
cell's CPU workers).  Processes request a slot, hold it while they consume
simulated service time, and release it; excess requests queue FIFO.  The
contention captured here is what turns per-transaction CPU cost into the
throughput ceilings of Fig. 10.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from operator import itemgetter
from typing import Any, Callable, Generator, Optional

from .environment import Environment
from .events import Event, SimulationError


class Resource:
    """A FIFO resource with fixed integer capacity."""

    def __init__(self, env: Environment, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be at least 1")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[Event] = deque()
        #: Cumulative busy time across all slots, for utilisation reporting.
        self.busy_time = 0.0
        self._peak_queue = 0

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiting)

    @property
    def peak_queue_length(self) -> int:
        """The longest queue observed so far."""
        return self._peak_queue

    def request(self) -> Event:
        """Return an event that fires once a slot has been granted."""
        grant = self.env.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed(self)
        else:
            self._waiting.append(grant)
            self._peak_queue = max(self._peak_queue, len(self._waiting))
        return grant

    def release(self) -> None:
        """Release one held slot, granting it to the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on {self.name} with no slot in use")
        if self._waiting:
            grant = self._waiting.popleft()
            grant.succeed(self)
        else:
            self._in_use -= 1

    def use(self, duration: float) -> Generator[Event, None, None]:
        """A process fragment that acquires a slot, holds it, and releases it.

        Usage inside a process::

            yield from cell.cpu.use(cpu_seconds)
        """
        yield self.request()
        started = self.env.now
        try:
            yield self.env.timeout(duration)
        finally:
            self.busy_time += self.env.now - started
            self.release()

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Average fraction of capacity busy over ``elapsed`` seconds."""
        horizon = self.env.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / (horizon * self.capacity))


#: Sort position of a :class:`ConflictGate` wait-list entry: its ``(key, arrival)`` pair.
_POSITION = itemgetter(0)


class ConflictGate:
    """A capacity-limited gate whose grants also require compatibility.

    Generalizes :class:`Resource`: every request carries a *token*
    ``(order, namespace, access)``, where ``access`` is what the holder
    will touch — an object with ``reads``, ``writes`` and ``deltas`` sets
    of keys (an :class:`~repro.contracts.state_store.AccessSet`), or
    ``None`` for an exclusive token that conflicts with everything.  Keys
    of different namespaces never meet.  Two tokens conflict under
    :func:`~repro.contracts.state_store.access_sets_conflict`'s rule: a
    write conflicts with any access to its key, an increment with a read
    or a write, and reads with nothing but those.  A waiter is granted a
    slot only when (a) a slot is free and (b) it conflicts with no current
    holder.  The wait list is ordered by ``(order_key(token), arrival)``
    and scanned front to back on every grant opportunity, with two rules:

    * no head-of-line blocking — a blocked waiter does not stop a later
      compatible waiter from being granted;
    * no conflict reordering — a waiter is never granted while an earlier
      waiter it conflicts with is still queued, so mutually incompatible
      requests always enter in ``order_key`` order.

    Conflicts are found by key, not by pairs of tokens: a drain pass that
    finds a free slot builds one per-namespace table of the keys that are
    read, written and incremented by the holders and then by each waiter
    the pass grants or leaves queued.  Deciding a waiter costs a few set
    tests on the keys it touches, however many tokens are in its way.

    A *keyless* token (an access naming no key) conflicts only with an
    exclusive one, so keyless holders are counted, never visited: a request
    or a release costs the same with 4,096 of them as with none.  With
    every token keyless and no ``order_key`` the gate grants what a
    :class:`Resource` of ``capacity`` slots would, at the same instants.

    The list is ordered by construction, never re-sorted: ``order_key`` is
    evaluated once per request, and the new entry is appended when it sorts
    last (the common case — ranks arrive nearly in order) and
    placed by bisection on the ``(key, arrival)`` pair otherwise.  A
    request or a release whose gate is full costs one addition (the
    capacity-deferral tally is arithmetic); one that finds a free slot
    scans from the front, removes what it grants in place and stops, without
    touching the tail, as soon as the slots are taken again.

    This is the deterministic simulated-lane primitive of the execution
    engine: tokens are ``(rank, contract, access plan)``, ``capacity`` is
    the number of execution lanes, and ``order_key`` takes the rank — the
    entry's ``(cycle, signed timestamp, tx id)``, the same on every
    replica — so every cell grants its queued transactions in one shared
    order (with one lane: keyless tokens, the same ``order_key``).
    """

    def __init__(
        self,
        env: Environment,
        capacity: int,
        name: str = "conflict-gate",
        order_key: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        if capacity < 1:
            raise SimulationError("conflict gate capacity must be at least 1")
        self.env = env
        self.name = name
        self.capacity = capacity
        self.order_key = order_key
        self._holding: list[Any] = []  # keyed and exclusive holders
        self._keyless = 0              # keyless holders, counted
        #: ((sort key, arrival counter), token, grant event), ordered by the
        #: pair: the first entry is the lowest-ranked waiter.  Read it; only
        #: the gate changes it.
        self.waiting: list[tuple[tuple[Any, int], Any, Event]] = []
        self._arrivals = 0
        # Statistics.
        self.grants = 0
        self.conflict_deferrals = 0
        self.capacity_deferrals = 0
        self.peak_in_use = 0
        self._peak_queue = 0

    @property
    def in_use(self) -> int:
        """Number of tokens currently holding a slot."""
        return len(self._holding) + self._keyless

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self.waiting)

    @property
    def peak_queue_length(self) -> int:
        """The longest wait list observed so far."""
        return self._peak_queue

    def request(self, token: Any) -> Event:
        """Return an event that fires once ``token`` holds a slot."""
        grant = self.env.event()
        self._arrivals += 1
        key = self.order_key(token) if self.order_key is not None else None
        # Arrivals are unique, so positions never tie and neither the token
        # nor the event is ever compared.
        entry = ((key, self._arrivals), token, grant)
        waiting = self.waiting
        if not waiting or waiting[-1][0] < entry[0]:
            waiting.append(entry)
        else:
            insort(waiting, entry, key=_POSITION)
        if len(waiting) > self._peak_queue:
            self._peak_queue = len(waiting)
        self._drain()
        return grant

    def release(self, token: Any) -> None:
        """Release the slot held by ``token`` and grant eligible waiters."""
        access = token[2]
        if access is not None and not (access.reads or access.writes or access.deltas):
            if not self._keyless:
                raise SimulationError(f"release() on {self.name} for a token not holding a slot")
            self._keyless -= 1
        else:
            try:
                self._holding.remove(token)
            except ValueError:
                raise SimulationError(f"release() on {self.name} for a token not holding a slot")
        if self.waiting:
            self._drain()

    def _drain(self) -> None:
        """Grant every eligible waiter in one front-to-back pass.

        One pass suffices: granting a waiter only ever *reduces* the
        eligibility of later waiters (the holder set grows), so nothing
        becomes newly grantable mid-scan.  Deferral counters tally events,
        not distinct waiters — a transaction deferred across N drains
        counts N times, which is the contention signal the lane statistics
        report.
        """
        holding = self._holding
        waiting = self.waiting
        in_use = len(holding) + self._keyless
        if not waiting or in_use >= self.capacity:
            self.capacity_deferrals += len(waiting)
            return
        # namespace -> (reads, writes, deltas): the keys each way touched by
        # the holders and by every waiter this pass has granted or left
        # queued (which a later waiter must not overtake), and whether one
        # of those tokens is exclusive.
        tables: dict[Any, tuple[set[Any], set[Any], set[Any]]] = {}
        exclusive = False
        for _order, namespace, access in holding:
            if access is None:
                exclusive = True
                continue
            table = tables.get(namespace)
            if table is None:
                table = tables[namespace] = (set(), set(), set())
            table[0].update(access.reads)
            table[1].update(access.writes)
            table[2].update(access.deltas)
        index = 0
        while index < len(waiting):
            if in_use >= self.capacity:
                self.capacity_deferrals += len(waiting) - index
                return
            _position, token, grant = waiting[index]
            _order, namespace, access = token
            table = None
            keyless = False
            if access is None:
                # Exclusive: any holder, or any waiter passed over, is in the way.
                blocked = in_use > 0 or index > 0
            elif exclusive:
                blocked = True
            elif not (access.reads or access.writes or access.deltas):
                blocked = False
                keyless = True
            else:
                table = tables.get(namespace)
                if table is None:
                    table = tables[namespace] = (set(), set(), set())
                reads, writes, deltas = table
                blocked = not (
                    access.writes.isdisjoint(writes) and access.writes.isdisjoint(reads)
                    and access.writes.isdisjoint(deltas)
                    and access.reads.isdisjoint(writes) and access.reads.isdisjoint(deltas)
                    and access.deltas.isdisjoint(writes) and access.deltas.isdisjoint(reads)
                )
            if blocked:
                self.conflict_deferrals += 1
                index += 1
            else:
                del waiting[index]
                if keyless:
                    self._keyless += 1
                else:
                    holding.append(token)
                in_use += 1
                self.grants += 1
                if in_use > self.peak_in_use:
                    self.peak_in_use = in_use
                grant.succeed(self)
            # Granted or passed over, the token is now in every later
            # waiter's way — unless it is keyless.
            if keyless:
                continue
            if table is None:
                exclusive = True
            else:
                table[0].update(access.reads)
                table[1].update(access.writes)
                table[2].update(access.deltas)
