"""Property-based tests for access plans (hypothesis).

Transactions are modeled abstractly as small programs over a shared
key-value store — reads, order-sensitive puts, and commutative increments.
From each program we derive the access plan the lane scheduler would see,
and check on random workloads what the online scheduler rests on:

* commutativity — two transactions whose plans do not conflict leave
  the same store fingerprint in either order;
* observation — the store's mutation journal sees exactly the access
  classes the plan predicted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts.state_store import AccessSet, KeyValueStore

keys = st.sampled_from([f"k{i}" for i in range(6)])
ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), keys),
        st.tuples(st.just("put"), keys),
        st.tuples(st.just("increment"), keys),
    ),
    min_size=1,
    max_size=5,
)


def footprint(index, program):
    """The pre-execution access plan of one abstract transaction."""
    reads, writes, deltas = set(), set(), set()
    for op, key in program:
        if op == "get":
            reads.add(key)
        elif op == "put":
            writes.add(key)
        else:
            deltas.add(key)
    return AccessSet(reads=frozenset(reads), writes=frozenset(writes), deltas=frozenset(deltas))


def run_program(store, index, program):
    """Execute one abstract transaction; put values depend on the tx only."""
    for position, (op, key) in enumerate(program):
        if op == "get":
            store.get(key)
        elif op == "put":
            # The written value is a pure function of the transaction, not
            # of store state — like a contract writing computed results.
            # Kept numeric so a later increment of the same key is valid.
            store.put(key, (index + 1) * 1_000 + position)
        else:
            store.increment(key, index + 1)


@settings(max_examples=150, deadline=None)
@given(ops, ops)
def test_observed_access_sets_predict_commutativity(program_a, program_b):
    """If the derived plans don't conflict, execution order commutes."""
    fa, fb = footprint(0, program_a), footprint(1, program_b)
    if fa.conflicts_with(fb):
        return
    ab, ba = KeyValueStore(), KeyValueStore()
    run_program(ab, 0, program_a)
    run_program(ab, 1, program_b)
    run_program(ba, 1, program_b)
    run_program(ba, 0, program_a)
    assert ab.fingerprint() == ba.fingerprint()


@settings(max_examples=120, deadline=None)
@given(ops)
def test_journal_observes_declared_access_classes(program):
    """The mutation journal's observed sets mirror the abstract plan."""
    store = KeyValueStore()
    store.begin()
    run_program(store, 0, program)
    observed = store.commit().access_set()
    predicted = footprint(0, program)
    # Every observed mutation is covered by the prediction.
    assert predicted.covers_mutations_of(observed)
    # And reads were recorded (gets may overlap puts/increments, which
    # record their own classes).
    assert predicted.reads <= observed.reads | observed.writes | observed.deltas