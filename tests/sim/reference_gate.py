"""The pre-PR-22 ``ConflictGate``, kept verbatim as the test-side reference.

``repro.sim.resources.ConflictGate`` keeps its wait list ordered by
construction and drains it in place; this is the implementation it replaced
(append + re-sort on every arrival, a rebuilt wait list on every drain).
Grant order decides every digest, so ``test_resources.py`` drives both with
the same random interleavings and requires the same grants at the same
instants and the same five counters.  Do not "fix" or speed this class up:
it is the oracle.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.environment import Environment
from repro.sim.events import Event, SimulationError


class ReferenceConflictGate:
    """A capacity-limited gate whose grants also require compatibility.

    Generalizes :class:`Resource`: every request carries a *token*, and a
    waiter is granted a slot only when (a) a slot is free and (b) its token
    is ``compatible`` with the token of every current holder.  The wait
    list is kept sorted by ``order_key`` (arrival order when keys tie) and
    scanned front to back on every grant opportunity, with two rules:

    * no head-of-line blocking — a blocked waiter does not stop a later
      *compatible* waiter from being granted;
    * no conflict reordering — a waiter is never granted while an earlier
      waiter it conflicts with is still queued, so mutually incompatible
      requests always enter in ``order_key`` order.

    This is the deterministic simulated-lane primitive of the execution
    engine: tokens are transaction access footprints, ``capacity`` is the
    number of execution lanes, and ``order_key`` is the entry's
    replica-independent rank, ``(cycle, signed timestamp, tx id)``.
    """

    def __init__(
        self,
        env: Environment,
        capacity: int,
        compatible: Callable[[Any, Any], bool],
        name: str = "conflict-gate",
        order_key: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        if capacity < 1:
            raise SimulationError("conflict gate capacity must be at least 1")
        self.env = env
        self.name = name
        self.capacity = capacity
        self.compatible = compatible
        self.order_key = order_key
        self._holding: list[Any] = []
        #: (sort key, arrival counter, token, grant event), kept sorted.
        self._waiting: list[tuple[Any, int, Any, Event]] = []
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
        return len(self._holding)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiting)

    @property
    def peak_queue_length(self) -> int:
        """The longest wait list observed so far."""
        return self._peak_queue

    def _sort_key(self, token: Any) -> Any:
        return self.order_key(token) if self.order_key is not None else None

    def request(self, token: Any) -> Event:
        """Return an event that fires once ``token`` holds a slot."""
        grant = self.env.event()
        self._arrivals += 1
        entry = (self._sort_key(token), self._arrivals, token, grant)
        self._waiting.append(entry)
        if self.order_key is not None:
            self._waiting.sort(key=lambda item: (item[0], item[1]))
        self._peak_queue = max(self._peak_queue, len(self._waiting))
        self._drain()
        return grant

    def release(self, token: Any) -> None:
        """Release the slot held by ``token`` and grant eligible waiters."""
        try:
            self._holding.remove(token)
        except ValueError:
            raise SimulationError(f"release() on {self.name} for a token not holding a slot")
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
        still_waiting: list[tuple[Any, int, Any, Event]] = []
        for index, entry in enumerate(self._waiting):
            _key, _arrival, token, grant = entry
            if len(self._holding) >= self.capacity:
                self.capacity_deferrals += len(self._waiting) - index
                still_waiting.extend(self._waiting[index:])
                break
            blocked = any(
                not self.compatible(token, holder) for holder in self._holding
            ) or any(
                not self.compatible(token, earlier[2]) for earlier in still_waiting
            )
            if blocked:
                self.conflict_deferrals += 1
                still_waiting.append(entry)
                continue
            self._holding.append(token)
            self.grants += 1
            self.peak_in_use = max(self.peak_in_use, len(self._holding))
            grant.succeed(self)
        self._waiting = still_waiting
