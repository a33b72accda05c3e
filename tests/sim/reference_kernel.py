"""The pre-PR-24 simulation kernel, kept verbatim as the test-side reference.

``repro.sim.events`` / ``repro.sim.environment`` now push their own heap
entries, keep ``now`` as a plain attribute and declare ``__slots__``; this is
the kernel they replaced (``super().__init__`` + ``env._schedule`` for every
push, ``now`` / ``triggered`` / ``processed`` read through properties inside
the kernel).  The order in which events fire — the ``(time, sequence)`` key
of every push — decides every ledger, receipt and digest, so
``test_events.py`` runs the same random programs on both kernels and
requires the same firings at the same instants, the same return values and
the same errors.  Do not "fix" or speed these classes up: they are the
oracle.  Never imported by ``src/``.

The exception types are the live ones (a program catches ``SimulationError``
whichever kernel raised it), and ``isinstance(target, Event)`` is this
file's own ``Event``: a reference process waits on reference events only.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.environment import EmptySchedule
from repro.sim.events import ConditionError, SimulationError

#: Sentinel for an event that has not produced a value yet.
PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is *triggered* exactly once with either a
    value (:meth:`succeed`) or an exception (:meth:`fail`).  Callbacks added
    before triggering run when the event is processed by the environment;
    callbacks added after triggering raise, which catches protocol bugs where
    a cell would wait on something that has already happened.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Set when a failure was delivered to at least one waiter, so the
        #: environment does not re-raise it as an unhandled error.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value or error."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self.triggered:
            raise SimulationError("event has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed."""
        if self.callbacks is None:
            raise SimulationError("cannot add a callback to a processed event")
        self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "pending"
        if self.processed:
            state = "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be non-negative, got {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event that triggers when the generator returns
    (successfully, carrying the return value) or raises (failing with the
    exception).  This lets protocol code wait on sub-processes, e.g. the
    service cell spawning one forwarding process per consortium member.
    """

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError("process() requires a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        # Bootstrap: resume the generator as soon as the simulation starts.
        bootstrap = Event(env)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.add_callback(self._resume)
        env._schedule(bootstrap)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self._target = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event.defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via the event
            if not self.triggered:
                self.fail(exc)
            return
        if not isinstance(target, Event):
            error = SimulationError(
                f"process yielded {target!r}; processes may only yield events"
            )
            self.fail(error)
            return
        if target.env is not self.env:
            self.fail(SimulationError("cannot wait on an event from another environment"))
            return
        self._target = target
        if target.processed:
            # The event already fired; resume on the next scheduling step.
            immediate = Event(self.env)
            immediate._ok = target._ok
            immediate._value = target._value
            if not target._ok:
                target.defused = True
            immediate.add_callback(self._resume)
            self.env._schedule(immediate)
        else:
            target.add_callback(self._resume)


class AllOf(Event):
    """Fires when every child event has fired (or any child fails)."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._on_child_local(event)
            else:
                event.add_callback(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        return {event: event._value for event in self._events if event.triggered}

    def _on_child_local(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(ConditionError(f"child event failed: {event._value!r}"))
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())

    def _on_child(self, event: Event) -> None:
        self._on_child_local(event)


class AnyOf(Event):
    """Fires as soon as any child event fires."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._on_child(event)
            else:
                event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(ConditionError(f"child event failed: {event._value!r}"))
            return
        self.succeed({event: event._value})


class Environment:
    """A deterministic discrete-event simulation environment."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = count()
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

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
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past ({when} < {self._now})")
        event = self.timeout(when - self._now)
        event.add_callback(lambda _event: callback())
        return event

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self._now + delay, next(self._sequence), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the single next event in the queue."""
        try:
            when, _seq, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self._now = when
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
            if horizon < self._now:
                raise SimulationError("cannot run to a time in the past")
            stop_event = self.timeout(horizon - self._now)

        while True:
            if stop_event is not None and stop_event.processed:
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value  # pragma: no cover - defensive
            if not self._queue:
                if stop_event is not None and not isinstance(until, Event):
                    # Ran out of events before the horizon: advance the clock.
                    self._now = max(self._now, float(until))  # type: ignore[arg-type]
                if stop_event is not None and isinstance(until, Event):
                    raise SimulationError(
                        "simulation ran out of events before the awaited event fired"
                    )
                return None
            self.step()

    def run_all(self, limit: int = 10_000_000) -> int:
        """Drain the event queue entirely, returning the number of steps."""
        steps = 0
        while self._queue:
            self.step()
            steps += 1
            if steps >= limit:
                raise SimulationError(f"exceeded {limit} simulation steps")
        return steps
