"""Events and processes for the discrete-event simulation kernel.

The simulator follows the classic process-interaction style (as popularized
by SimPy): simulation logic is written as Python generator functions that
``yield`` events — timeouts, other processes, or plain one-shot events — and
the environment resumes them when those events fire.  The protocol code in
:mod:`repro.core` reads almost like the prose of the paper: "forward the
transaction to all cells, wait for confirmations or the deadline, then reply
to the client".

**The kernel contract.**  What a simulation can observe of the kernel is the
order in which events fire: the environment pops heap entries ``(time,
sequence, event)``, ``sequence`` counting pushes, so that order is fixed by
*where in program order* each push happens and with what time.  How an entry
got onto the heap is not observable, and this module uses that freedom:
:class:`Timeout`, :meth:`Event.succeed` / :meth:`Event.fail` and
:class:`Process` push their own entries, the classes declare ``__slots__``,
and the kernel reads ``_value`` / ``callbacks`` where outside code reads
``triggered`` / ``processed``.  The invariant every edit here must keep (and
``tests/sim/test_events.py`` checks against the kernel this one replaced,
``tests/sim/reference_kernel.py``): **every push happens at the same point
in program order with the same (time, sequence) key — no event is added,
removed, merged or reordered.**  A process waiting on an already processed
event still costs one relay event, an uncontended
:meth:`~repro.sim.resources.Resource.request` still costs its grant event.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

#: Sentinel for an event that has not produced a value yet.
PENDING = object()


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is *triggered* exactly once with either a
    value (:meth:`succeed`) or an exception (:meth:`fail`).  Callbacks added
    before triggering run when the event is processed by the environment;
    callbacks added after triggering raise, which catches protocol bugs where
    a cell would wait on something that has already happened.
    """

    # A burst creates some twenty-five events per transaction; slots keep
    # them small and make an undeclared attribute an error.
    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "__weakref__")

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
        if self._value is not PENDING:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._queue, (env.now, next(env._sequence), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not PENDING:
            raise SimulationError("event has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        heappush(env._queue, (env.now, next(env._sequence), self))
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
    """An event that fires after a fixed simulated delay.

    ``at`` pins the instant exactly: ``now + (at - now)`` can miss ``at`` by
    a rounding step, and an absolute instant must not.
    """

    __slots__ = ("delay",)

    def __init__(
        self, env: "Environment", delay: float, value: Any = None,
        at: Optional[float] = None,
    ) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be non-negative, got {delay}")
        # Born triggered: the fields of Event.__init__, with the outcome set.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        heappush(env._queue, (env.now + delay if at is None else at, next(env._sequence), self))


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event that triggers when the generator returns
    (successfully, carrying the return value) or raises (failing with the
    exception).  This lets protocol code wait on sub-processes, e.g. the
    service cell spawning one forwarding process per consortium member.
    """

    __slots__ = ("_generator", "_target", "_send", "_resumer")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError("process() requires a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        # Bound once: a process is resumed once per event it waits on.  The
        # resumer is dropped when the generator ends, so a finished process
        # is not kept alive by a reference cycle through its own bound method.
        self._send = generator.send
        self._resumer: Optional[Callable[[Event], None]] = self._resume
        # Bootstrap: resume the generator as soon as the simulation starts.
        self._relay(True, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def _relay(self, ok: Optional[bool], value: Any) -> None:
        """Push a fresh, already triggered event that resumes this process."""
        env = self.env
        relay = Event(env)
        relay._ok = ok
        relay._value = value
        relay.callbacks = [self._resumer]
        heappush(env._queue, (env.now, next(env._sequence), relay))

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self._target = None
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                event.defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._resumer = None
            if self._value is PENDING:
                self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via the event
            self._resumer = None
            if self._value is PENDING:
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
        callbacks = target.callbacks
        if callbacks is None:
            # The event already fired; resume on the next scheduling step.
            if not target._ok:
                target.defused = True
            self._relay(target._ok, target._value)
        else:
            callbacks.append(self._resumer)


class ConditionError(SimulationError):
    """Raised when a condition event fails because a child event failed."""


class AllOf(Event):
    """Fires when every child event has fired (or any child fails)."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed({})
            return
        on_child = self._on_child
        for event in self._events:
            if event.callbacks is None:
                on_child(event)
            else:
                event.callbacks.append(on_child)

    def _collect(self) -> dict[Event, Any]:
        return {event: event._value for event in self._events if event._value is not PENDING}

    def _on_child(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(ConditionError(f"child event failed: {event._value!r}"))
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(Event):
    """Fires as soon as any child event fires.

    Once it has fired it lets go of every child that already succeeded and
    so can no longer fail — typically the deadline ``Timeout`` of a race
    that was won, which would otherwise keep the condition and everything
    it reaches alive until the deadline passes.  It stays on pending
    children, so that a failure after it fired is still defused.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            self.succeed({})
            return
        on_child = self._on_child
        for event in self._events:
            if event.callbacks is None:
                on_child(event)
            elif self._value is PENDING or not event._ok:
                event.callbacks.append(on_child)

    def _on_child(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(ConditionError(f"child event failed: {event._value!r}"))
        else:
            self.succeed({event: event._value})
        self._release()

    def _release(self) -> None:
        """Detach from the children that succeeded but are not processed yet."""
        on_child = self._on_child
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is not None and event._ok and on_child in callbacks:
                callbacks.remove(on_child)
