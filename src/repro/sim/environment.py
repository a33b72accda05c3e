"""The discrete-event simulation environment.

The environment owns the simulated clock and the pending-event queue, and it
drives generator-based processes (:mod:`repro.sim.events`).  Everything in
the Blockumulus evaluation runs inside one ``Environment``: cells, clients,
auditors, the simulated Ethereum miner, and the workload generators.  Time
is a float number of seconds; determinism comes from the strictly ordered
event queue plus seeded RNG streams (:mod:`repro.sim.rng`).

Events push their own heap entries (see the kernel contract in
:mod:`repro.sim.events`); this module pops them.  :meth:`Environment.step`
is the one dispatch point: :meth:`~Environment.run` and
:meth:`~Environment.run_all` call it once per event and never inline it, so
a wrapper installed on the class (the benchmark's event counter) sees every
event.
"""

from __future__ import annotations

from heapq import heappop
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional, Protocol

from .events import AllOf, AnyOf, Event, Process, SimulationError, Timeout


class Clock(Protocol):
    """What a component may know about time: read it, wait on it, start work.

    The cell's stages and the state they drive take a ``Clock``, never an
    :class:`Environment` (lint rule ``DET006``): running the simulation is
    the deployment's business, and a transport backed by a real clock has
    these six members to provide.  :class:`Environment` satisfies it as is.
    """

    now: float

    def event(self) -> Event: ...

    def timeout(self, delay: float, value: Any = None) -> Event: ...

    def any_of(self, events: Iterable[Event]) -> Event: ...

    def call_at(self, when: float, callback: Callable[[], None]) -> Event: ...

    def process(self, generator: Generator[Event, Any, Any]) -> Event: ...


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """A deterministic discrete-event simulation environment."""

    #: Steps after which :meth:`run_all` gives up on a queue that never drains.
    RUN_ALL_LIMIT = 10_000_000

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time in seconds.  A plain attribute, read tens
        #: of thousands of times per burst; :meth:`step` (and :meth:`run`,
        #: when the queue drains before its horizon) is its only writer,
        #: which lint rule ``DET005`` holds the rest of the tree to.
        self.now = float(initial_time)
        #: ``(time, push sequence, event)``, pushed by the events themselves.
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = count()

    # ------------------------------------------------------------------
    # Event constructors
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new process from a generator and return it."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past ({when} < {self.now})")
        event = Timeout(self, when - self.now, at=when)
        event.add_callback(lambda _event: callback())
        return event

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the single next event in the queue."""
        try:
            self.now, _seq, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks or ():
            callback(event)
        if not event._ok and not event.defused:
            # Nobody handled the failure: surface it to the caller of run().
            value = event.value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(f"unhandled event failure: {value!r}")

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        fires, returning its value).
        """
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise SimulationError("cannot run to a time in the past")
            stop_event = Timeout(self, horizon - self.now)

        queue = self._queue
        if stop_event is None:
            while queue:
                self.step()
            return None
        while stop_event.callbacks is not None:
            if not queue:
                if isinstance(until, Event):
                    raise SimulationError(
                        "simulation ran out of events before the awaited event fired"
                    )
                # Ran out of events before the horizon: advance the clock.
                self.now = max(self.now, float(until))  # type: ignore[arg-type]
                return None
            self.step()
        if stop_event._ok:
            return stop_event._value
        raise stop_event._value  # pragma: no cover - defensive

    def run_all(self) -> int:
        """Drain the event queue entirely, returning the number of steps."""
        steps = 0
        while self._queue:
            self.step()
            steps += 1
            if steps >= self.RUN_ALL_LIMIT:
                raise SimulationError(f"exceeded {self.RUN_ALL_LIMIT} simulation steps")
        return steps
