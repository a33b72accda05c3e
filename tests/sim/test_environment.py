"""Environment scheduling and clock behaviour."""

import pytest

from repro.sim import EmptySchedule, Environment, SimulationError


def test_time_starts_at_initial_value():
    assert Environment().now == 0.0
    assert Environment(initial_time=100.0).now == 100.0


def test_run_until_time(env):
    env.timeout(5)
    env.run(until=3)
    assert env.now == 3


def test_run_until_event(env):
    marker = env.timeout(4, value="x")
    assert env.run(marker) == "x"
    assert env.now == 4


def test_events_fire_in_time_order(env):
    order = []
    for delay in (5, 1, 3):
        env.timeout(delay, value=delay).add_callback(lambda e: order.append(e.value))
    env.run()
    assert order == [1, 3, 5]


def test_same_time_events_fire_in_schedule_order(env):
    order = []
    for tag in ("first", "second", "third"):
        env.timeout(1, value=tag).add_callback(lambda e: order.append(e.value))
    env.run()
    assert order == ["first", "second", "third"]


def test_step_on_empty_schedule_raises(env):
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_to_past_rejected(env):
    env.timeout(10)
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_peek_reports_next_event_time(env):
    assert env.peek() == float("inf")
    env.timeout(7)
    assert env.peek() == 7


def test_call_at_runs_callback(env):
    seen = []
    env.call_at(2.5, lambda: seen.append(env.now))
    env.run()
    assert seen == [2.5]


def test_call_at_fires_at_exactly_the_instant_asked_for(env):
    # 0.02 + (when - 0.02) rounds to a different float than ``when``.
    when = 0.01 + 0.05
    seen = []
    env.timeout(0.02)
    env.run()
    env.call_at(when, lambda: seen.append(env.now))
    env.run()
    assert seen == [when]


def test_call_at_in_past_rejected(env):
    env.timeout(1)
    env.run()
    with pytest.raises(SimulationError):
        env.call_at(0.5, lambda: None)


def test_run_all_counts_steps(env):
    for delay in range(5):
        env.timeout(delay)
    assert env.run_all() == 5


def test_nested_process_scheduling(env):
    results = []

    def child(tag, delay):
        yield env.timeout(delay)
        results.append((env.now, tag))
        return tag

    def parent():
        first = yield env.process(child("a", 1))
        second = yield env.process(child("b", 2))
        return [first, second]

    assert env.run(env.process(parent())) == ["a", "b"]
    assert results == [(1, "a"), (3, "b")]
