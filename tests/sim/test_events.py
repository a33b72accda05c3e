"""Event and process semantics of the simulation kernel."""

from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim as sim_kernel
from repro.contracts.state_store import AccessSet
from repro.sim import ConflictGate, EmptySchedule, Environment, Resource, SimulationError
from tests.sim import reference_kernel

#: Gate tokens by name: each writes its own key, so equal names conflict.
_GATE_TOKENS = {
    name: (ord(name), "gate", AccessSet(writes=frozenset({name}))) for name in "ab"
}


def test_event_succeed_delivers_value(env):
    event = env.event()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    event.succeed(42)
    env.run()
    assert seen == [42]


def test_event_cannot_trigger_twice(env):
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception(env):
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")


def test_unhandled_failure_propagates(env):
    event = env.event()
    event.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError):
        env.run()


def test_process_returns_value(env):
    def worker():
        yield env.timeout(1)
        return "done"

    process = env.process(worker())
    assert env.run(process) == "done"
    assert env.now == 1


def test_process_receives_timeout_values(env):
    def worker():
        value = yield env.timeout(2, value="tick")
        return value

    assert env.run(env.process(worker())) == "tick"


def test_process_exception_propagates_to_waiter(env):
    def failing():
        yield env.timeout(1)
        raise ValueError("inner failure")

    def outer():
        try:
            yield env.process(failing())
        except ValueError as exc:
            return f"caught {exc}"

    assert env.run(env.process(outer())) == "caught inner failure"


def test_process_yielding_non_event_fails(env):
    def bad():
        yield 42

    with pytest.raises(SimulationError):
        env.run(env.process(bad()))


def test_all_of_waits_for_every_event(env):
    def worker(delay):
        yield env.timeout(delay)
        return delay

    processes = [env.process(worker(d)) for d in (3, 1, 2)]
    env.run(env.all_of(processes))
    assert env.now == 3
    assert all(p.processed or p.triggered for p in processes)


def test_any_of_fires_on_first_event(env):
    slow = env.timeout(10)
    fast = env.timeout(2)
    env.run(env.any_of([slow, fast]))
    assert env.now == 2


def test_a_fired_any_of_lets_go_of_a_child_that_can_no_longer_fail(env):
    """The losing timer of a race must not keep the condition alive until it
    fires: once the condition fired, it leaves every child that succeeded."""
    slow = env.timeout(900)
    fast = env.timeout(2)
    env.run(env.any_of([slow, fast]))
    assert slow.callbacks == []


def test_a_fired_any_of_stays_on_a_pending_child_to_defuse_its_failure(env):
    pending = env.event()
    condition = env.any_of([pending, env.timeout(1)])
    assert env.run(condition) is not None
    assert len(pending.callbacks) == 1
    pending.fail(KeyError("late"))
    env.run()  # an undefused failure would raise here
    assert pending.defused


def test_an_any_of_that_fires_while_it_is_built_attaches_only_where_needed(env):
    """Built over a child that was already processed, the condition fires at
    once: it must not then attach to the succeeded children after it, and
    must still attach to the pending ones."""
    fired = env.timeout(0)
    env.run()
    later, pending = env.timeout(5), env.event()
    condition = env.any_of([fired, later, pending])
    assert condition.triggered
    assert later.callbacks == [] and len(pending.callbacks) == 1


def test_all_of_empty_fires_immediately(env):
    event = env.all_of([])
    assert event.triggered


def test_negative_timeout_rejected(env):
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_waiting_on_already_fired_event(env):
    def worker():
        fired = env.timeout(0)
        yield env.timeout(1)
        # fired has already been processed by now; waiting must still work.
        yield fired
        return env.now

    assert env.run(env.process(worker())) == 1


def test_an_event_rejects_an_undeclared_attribute(env):
    """``__slots__`` took: a typo on an event is an error, not a new attribute."""
    def idle():
        yield env.timeout(1)

    for event in (env.event(), env.timeout(1), env.process(idle())):
        with pytest.raises(AttributeError):
            event.note = "scribble"
        assert not hasattr(event, "__dict__")


def test_now_is_a_float_that_only_moves_forward():
    env = Environment(initial_time=3)
    assert type(env.now) is float and env.now == 3.0
    for delay in (2, 0, 0.25, 2, 0):
        env.timeout(delay)
    seen = [env.now]
    while env.peek() != float("inf"):
        env.step()
        assert type(env.now) is float
        seen.append(env.now)
    assert seen == sorted(seen) and seen[-1] == 5.0
    env.run(until=9)  # nothing left to fire: the clock still reaches the horizon
    assert type(env.now) is float and env.now == 9.0


# ----------------------------------------------------------------------
# The kernel against the one it replaced (tests/sim/reference_kernel.py)
# ----------------------------------------------------------------------
# A *program* is a list of process scripts; a script is a list of steps.  The
# same program runs on both kernels; everything a simulation could observe —
# which callback fired when, what every wait returned, what every process
# ended with, what ``step()`` raised — must be the same list.
_DELAYS = st.sampled_from([0, 0, 0.5, 1.0, 1.0, 2.5])
_SHARED = 3      # plain events any process may trigger or wait on
_PROCESSES = 5   # upper bound; a reference past the end wraps around
_shared = st.integers(0, _SHARED - 1)
_process = st.integers(0, _PROCESSES - 1)
_waitable = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("shared"), _shared),
    st.tuples(st.just("process"), _process),
    st.tuples(st.just("fired")),        # a timeout(0) made at start: long processed
)
_step = st.one_of(
    st.tuples(st.just("wait"), _waitable, st.booleans()),            # guarded by try/except?
    st.tuples(st.just("any_of"), st.lists(_waitable, max_size=3)),
    st.tuples(st.just("all_of"), st.lists(_waitable, max_size=3), st.booleans()),
    st.tuples(st.just("succeed"), _shared),                          # twice: a double trigger
    st.tuples(st.just("fail"), _shared),
    st.tuples(st.just("late_callback"), _shared),                    # refused once processed
    st.tuples(st.just("resource"), st.integers(0, 1), _DELAYS),
    st.tuples(st.just("gate"), st.sampled_from("aab"), _DELAYS),
    st.tuples(st.just("yield"), st.sampled_from(["non-event", "foreign", "negative"])),
    st.tuples(st.just("raise")),
)
_programs = st.lists(st.lists(_step, max_size=6), min_size=1, max_size=_PROCESSES)


def _plain(value):
    """A wait's result without the event objects a condition keys it by."""
    if isinstance(value, dict):
        return sorted(repr(_plain(item)) for item in value.values())
    if isinstance(value, BaseException):
        return (type(value).__name__, str(value))
    if isinstance(value, (Resource, ConflictGate)):
        return value.name
    return value


class _Run:
    """One program on one kernel, and everything it let a test see."""

    def __init__(self, kernel, program):
        self.env = env = kernel.Environment()
        self.foreign = kernel.Environment().event()
        self.log = []       # (now, who, what) in firing order
        self.errors = []    # what step() / run() raised, and when
        self.shared = [env.event() for _ in range(_SHARED)]
        self.fired = env.timeout(0)
        # The live Resource / ConflictGate on either kernel: they reach it
        # through env.event() / env.timeout() / env.now only.
        self.resources = [Resource(env, 1, name="r0"), Resource(env, 2, name="r1")]
        self.gate = ConflictGate(env, 2, name="gate", order_key=itemgetter(0))
        for index, event in enumerate(self.shared):
            event.add_callback(self._watch(f"shared-{index}"))
        self.processes = []
        for pid, script in enumerate(program):
            process = env.process(self._body(pid, script))
            process.add_callback(self._watch(f"process-{pid}"))
            self.processes.append(process)

    def _watch(self, who):
        return lambda event: self.log.append((self.env.now, who, event.ok, _plain(event.value)))

    def _target(self, spec):
        kind = spec[0]
        if kind == "timeout":
            return self.env.timeout(spec[1], value=spec[1])
        if kind == "shared":
            return self.shared[spec[1]]
        if kind == "process":
            return self.processes[spec[1] % len(self.processes)]
        return self.fired

    def _body(self, pid, script):
        env, log = self.env, self.log
        for index, step in enumerate(script):
            op = step[0]
            got = None
            if op == "wait":
                if step[2]:
                    try:
                        got = yield self._target(step[1])
                    except Exception as exc:  # noqa: BLE001 - the program records what it caught
                        got = ("caught", _plain(exc))
                else:
                    got = yield self._target(step[1])
            elif op == "any_of":
                got = yield env.any_of([self._target(spec) for spec in step[1]])
            elif op == "all_of":
                condition = env.all_of([self._target(spec) for spec in step[1]])
                try:
                    got = yield condition
                except SimulationError as exc:
                    if not step[2]:
                        raise
                    got = ("caught", _plain(exc))
            elif op == "succeed":
                self.shared[step[1]].succeed((pid, index))
            elif op == "fail":
                self.shared[step[1]].fail(KeyError(f"{pid}.{index}"))
            elif op == "late_callback":
                self.shared[step[1]].add_callback(self._watch(f"late-{pid}.{index}"))
            elif op == "resource":
                resource = self.resources[step[1]]
                yield from resource.use(step[2])
                got = (resource.in_use, resource.queue_length, resource.busy_time)
            elif op == "gate":
                token = _GATE_TOKENS[step[1]]
                got = yield self.gate.request(token)
                yield env.timeout(step[2])
                self.gate.release(token)
            elif op == "yield":
                if step[1] == "negative":
                    yield env.timeout(-1)  # refused before anything is scheduled
                yield 42 if step[1] == "non-event" else self.foreign
            else:
                raise ValueError(f"{pid}.{index}")
            log.append((env.now, f"process-{pid}", index, _plain(got)))
        return ("done", pid, env.now)

    def drive(self, horizons):
        env, clock = self.env, [self.env.now]
        for horizon in horizons:
            try:
                env.run(until=env.now + horizon)
            except Exception as exc:  # noqa: BLE001 - compared, not handled
                self.errors.append((env.now, _plain(exc)))
            clock.append(env.now)
        for _ in range(10_000):
            try:
                env.step()
            except EmptySchedule:
                break
            except Exception as exc:  # noqa: BLE001 - compared, not handled
                self.errors.append((env.now, _plain(exc)))
            clock.append(env.now)
        else:  # pragma: no cover - a script is finite
            raise AssertionError("the program did not finish")
        assert clock == sorted(clock) and all(type(now) is float for now in clock)
        return (
            self.log, self.errors, clock,
            [
                (p.triggered, p.processed, p.is_alive,
                 (p.ok, _plain(p.value)) if p.triggered else None)
                for p in self.processes
            ],
            [(e.triggered, e.processed) for e in self.shared],
            [(r.in_use, r.queue_length, r.peak_queue_length, r.busy_time) for r in self.resources],
            (self.gate.in_use, self.gate.queue_length, self.gate.grants,
             self.gate.conflict_deferrals, self.gate.capacity_deferrals),
        )


@settings(max_examples=400, deadline=None)
@given(program=_programs, horizons=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), max_size=3))
def test_kernel_fires_exactly_like_the_reference(program, horizons):
    """Same firings at the same instants, same results, same errors."""
    assert _Run(sim_kernel, program).drive(horizons) == _Run(
        reference_kernel, program
    ).drive(horizons)
