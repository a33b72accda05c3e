"""Capacity-constrained resources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts.state_store import AccessSet, access_sets_conflict
from repro.sim import Environment, SimulationError
from repro.sim.resources import ConflictGate, Resource
from tests.sim.reference_gate import ReferenceConflictGate


def test_capacity_must_be_positive(env):
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_serialization_under_capacity_one(env):
    resource = Resource(env, capacity=1)
    finished = []

    def job(name, duration):
        yield from resource.use(duration)
        finished.append((env.now, name))

    env.process(job("a", 3))
    env.process(job("b", 2))
    env.run()
    assert finished == [(3, "a"), (5, "b")]


def test_parallelism_matches_capacity(env):
    resource = Resource(env, capacity=2)
    finished = []

    def job(name):
        yield from resource.use(4)
        finished.append((env.now, name))

    for name in ("a", "b", "c"):
        env.process(job(name))
    env.run()
    # Two jobs run in parallel, the third starts when one slot frees.
    assert finished == [(4, "a"), (4, "b"), (8, "c")]


def test_queue_length_and_peak(env):
    resource = Resource(env, capacity=1)

    def job():
        yield from resource.use(1)

    for _ in range(4):
        env.process(job())
    env.run(until=0.5)
    assert resource.in_use == 1
    assert resource.queue_length == 3
    env.run()
    assert resource.peak_queue_length == 3
    assert resource.queue_length == 0


def test_release_without_request_raises(env):
    resource = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_utilization_accounting(env):
    resource = Resource(env, capacity=1)

    def job():
        yield from resource.use(5)

    env.process(job())
    env.run(until=10)
    assert resource.utilization() == pytest.approx(0.5)


def test_busy_time_accumulates_across_jobs(env):
    resource = Resource(env, capacity=2)

    def job(duration):
        yield from resource.use(duration)

    env.process(job(2))
    env.process(job(3))
    env.run()
    assert resource.busy_time == pytest.approx(5)


# ----------------------------------------------------------------------
# ConflictGate against the implementation it replaced
# ----------------------------------------------------------------------
_keys = st.frozensets(st.sampled_from("abcd"), max_size=2)
#: None is the exclusive footprint: it conflicts with everything.  An empty
#: access set is keyless: it conflicts with nothing but an exclusive token.
_footprints = st.one_of(
    st.none(), st.just(AccessSet()),
    st.builds(AccessSet, reads=_keys, writes=_keys, deltas=_keys),
)
_steps = st.lists(
    st.one_of(
        # Order keys from a small range: they arrive out of order and they
        # tie.  Two contracts: the same key in another one never conflicts.
        st.tuples(st.just("request"), st.integers(0, 6), st.sampled_from("xy"), _footprints),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 2.0])),
    ),
    max_size=60,
)


def _compatible(a, b):
    """The pairwise predicate the reference gate asks, for ``(order, contract, plan)`` tokens."""
    if a[2] is None or b[2] is None:
        return False
    return a[1] != b[1] or not a[2].conflicts_with(b[2])


class _DrivenGate:
    """One gate in an environment of its own, with everything a test can see."""

    def __init__(self, gate, capacity, ordered):
        self.env = Environment()
        self.gate = gate(
            self.env, capacity, order_key=(lambda token: token[0]) if ordered else None
        )
        self.requests = []      # (request serial, token, grant event), in request order
        self.released = set()   # serials of the requests released again
        self.granted_at = []    # (request serial, instant), as the events fire

    def request(self, serial, token):
        grant = self.gate.request(token)
        grant.add_callback(lambda _event: self.granted_at.append((serial, self.env.now)))
        self.requests.append((serial, token, grant))

    def held(self):
        """(serial, token) of every request holding a slot, in request order."""
        return [
            (serial, token) for serial, token, grant in self.requests
            if grant.triggered and serial not in self.released
        ]

    def release(self, pick):
        serial, token = self.held()[pick]
        self.released.add(serial)
        self.gate.release(token)

    def observed(self):
        gate = self.gate
        # Keyed and exclusive holders in grant order; a keyless one is only counted.
        holders = [
            token for token in gate._holding
            if token[2] is None or token[2].reads or token[2].writes or token[2].deltas
        ]
        return (
            [grant.triggered for _serial, _token, grant in self.requests], self.granted_at,
            holders, gate.in_use, gate.queue_length, gate.peak_queue_length,
            gate.grants, gate.conflict_deferrals, gate.capacity_deferrals, gate.peak_in_use,
        )


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 5), ordered=st.booleans(), steps=_steps)
def test_conflict_gate_grants_exactly_like_the_reference(capacity, ordered, steps):
    """Same grants, in the same order, at the same instants, same counters — after every step."""
    new = _DrivenGate(ConflictGate, capacity, ordered)
    reference = _DrivenGate(
        lambda env, capacity, order_key: ReferenceConflictGate(
            env, capacity, _compatible, order_key=order_key
        ),
        capacity, ordered,
    )
    for serial, step in enumerate(steps):
        for driven in (new, reference):
            if step[0] == "request":
                driven.request(serial, step[1:])
            elif step[0] == "run":
                driven.env.run(until=driven.env.now + step[1])
            elif driven.held():
                driven.release(step[1] % len(driven.held()))
            else:
                for stranger in (("never", "held", None), ("never", "held", AccessSet())):
                    with pytest.raises(SimulationError):
                        driven.gate.release(stranger)
        assert new.observed() == reference.observed()
    for driven in (new, reference):
        driven.env.run()
    assert new.observed() == reference.observed()


#: One key, touched each way a token can touch it; None is exclusive, an empty set keyless.
_ONE_KEY = {
    "read": AccessSet(reads=frozenset({"k"})),
    "write": AccessSet(writes=frozenset({"k"})),
    "increment": AccessSet(deltas=frozenset({"k"})),
    "exclusive": None,
    "nothing": AccessSet(),
}


@pytest.mark.parametrize("in_the_way", ["holder", "passed over"])
@pytest.mark.parametrize("asked", sorted(_ONE_KEY))
@pytest.mark.parametrize("first", sorted(_ONE_KEY))
def test_gate_answer_is_the_access_set_conflict_rule(first, asked, in_the_way):
    """The per-key table says what ``access_sets_conflict`` says, from either table."""
    a, b = _ONE_KEY[first], _ONE_KEY[asked]
    conflict = a is None or b is None or access_sets_conflict(
        a.reads, a.writes, a.deltas, b.reads, b.writes, b.deltas
    )
    gate = ConflictGate(Environment(), capacity=3)
    if in_the_way == "holder":
        assert gate.request((0, "c", a)).triggered
    else:
        # A holder of another key keeps the first token waiting, so the
        # second meets it in the pass table.
        assert gate.request((0, "c", AccessSet(writes=frozenset({"j"})))).triggered
        blocked = a if a is None else AccessSet(a.reads, a.writes | {"j"}, a.deltas)
        assert not gate.request((1, "c", blocked)).triggered
    assert gate.request((2, "c", b)).triggered is not conflict
    # The same keys of another contract never meet (unless a token is exclusive).
    other = ConflictGate(Environment(), capacity=2)
    other.request((0, "c", a))
    assert other.request((1, "d", b)).triggered is (a is not None and b is not None)


class _Watched:
    """A keyless access that counts every look the gate takes at it."""

    def __init__(self):
        self.looks = 0

    def _empty(self):
        self.looks += 1
        return frozenset()

    reads = writes = deltas = property(_empty)


def test_keyless_holders_are_counted_not_visited():
    """With 4,000 keyless holders, a request or a release touches no other holder."""
    gate = ConflictGate(Environment(), capacity=4_096)
    held = [(serial, "", _Watched()) for serial in range(4_000)]
    assert all(gate.request(token).triggered for token in held)
    assert gate.in_use == 4_000 and gate._holding == []
    for _serial, _namespace, access in held:
        access.looks = 0
    newcomer = (4_000, "", _Watched())
    assert gate.request(newcomer).triggered
    gate.release(held[17])
    assert gate.in_use == 4_000
    assert sum(access.looks for _s, _n, access in held[:17] + held[18:]) == 0
    # A full pool: the release that frees a slot grants the one waiter.
    for serial in range(4_001, 4_097):
        gate.request((serial, "", _Watched()))
    waiter = (5_000, "", _Watched())
    grant = gate.request(waiter)
    assert not grant.triggered
    gate.release(held[18])
    assert grant.triggered
    assert sum(access.looks for _s, _n, access in held[:17] + held[19:]) == 0
