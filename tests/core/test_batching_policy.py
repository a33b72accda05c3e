"""The flush policy of ``BatchDispatcher``: the quantum is a rate bound.

A random *program* queues forwards and confirmations for two destinations
at random gaps, and may crash the sender at one of its steps.  Every batch
the dispatcher sends is recorded with its instant and its items.  At
``quantum = 0`` the dispatcher must do exactly what the fixed-period one it
replaced did (``tests/core/reference_batching.py``); at ``quantum > 0`` it
must keep the promises its module docstring makes.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batching import BatchDispatcher
from repro.core.receipts import Confirmation, ConfirmationBatch, LinkConfirmation
from repro.messages import Opcode, SimulatedSigner
from repro.messages.batch import ForwardBatch
from repro.messages.envelope import Envelope
from repro.sim import Environment
from tests.core.reference_batching import ReferenceBatchDispatcher

_SIGNER = SimulatedSigner("batching-policy/sender")
_DESTINATIONS = {"cell-a": SimulatedSigner("batching-policy/a").address,
                 "cell-b": SimulatedSigner("batching-policy/b").address}
_ITEMS = 24
#: Float slack for "at least / at most a quantum": a flush is scheduled at
#: ``now + (last + quantum - now)``, which may round by an ulp.
_SLACK = 1e-9


def _forward(item: int) -> Envelope:
    return Envelope.create(
        _SIGNER, _DESTINATIONS["cell-a"], Opcode.TX_SUBMIT, {"item": item}, 0.0, f"n{item}"
    )


def _confirmation(item: int) -> LinkConfirmation:
    # The item number leads the tx id: the link item carries its first 8 bytes.
    confirmation = Confirmation.create(
        _SIGNER, f"0x{item:016x}" + "00" * 24, "pay", "0x" + "00" * 32, "executed", 0.0
    )
    return LinkConfirmation.of(confirmation, _forward(item))


#: Signed once: item ``i`` is the ``i``-th forward or confirmation.
_FORWARDS = [_forward(item) for item in range(_ITEMS)]
_CONFIRMATIONS = [_confirmation(item) for item in range(_ITEMS)]


class _Endpoint:
    """What the dispatcher uses of a cell's endpoint, recording each send."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.node_name = "cell-s"
        self.crashed = False
        self.sent: list[tuple[float, str, str, tuple[int, ...]]] = []

    def silent(self) -> bool:
        return self.crashed

    def send(self, dst_node, recipient, operation, data, signed=True) -> None:
        assert recipient == _DESTINATIONS[dst_node]
        if operation is Opcode.TX_FORWARD:
            items = tuple(
                envelope.payload.data["item"]
                for envelope in ForwardBatch.from_data(data).envelopes(_SIGNER.address)
            )
        else:
            assert operation is Opcode.TX_CONFIRM
            items = tuple(
                int(confirmation.tx_id, 16)
                for confirmation in ConfirmationBatch.from_data(data).confirmations
            )
        self.sent.append((self.env.now, dst_node, operation.value, items))


# A step: (gap before it, destination, forward?)
_GAPS = st.sampled_from([0.0, 0.0, 0.0, 0.004, 0.01, 0.02, 0.03, 0.05])
_steps = st.lists(
    st.tuples(_GAPS, st.sampled_from(sorted(_DESTINATIONS)), st.booleans()),
    max_size=_ITEMS,
)


def _run(dispatcher_class, quantum, steps, crash_at):
    """Drive one program.

    Returns the endpoint, the dispatcher, each item's ``(forward?, index)
    -> (queued at, destination, batches sent before it was queued)`` and
    how many batches had been sent when the sender crashed (``None``: it
    did not).  The crash comes before step ``crash_at`` is queued, or
    after the last step when ``crash_at == len(steps)``.
    """
    env = Environment()
    endpoint = _Endpoint(env)
    dispatcher = dispatcher_class(endpoint, quantum)
    queued = {}
    sent_at_crash = []

    def crash():
        endpoint.crashed = True
        sent_at_crash.append(len(endpoint.sent))

    def program():
        for index, (gap, dst, forward) in enumerate(steps):
            if gap:
                yield env.timeout(gap)
            if index == crash_at:
                crash()
            queued[(forward, index)] = (env.now, dst, len(endpoint.sent))
            if forward:
                dispatcher.queue_forward(dst, _DESTINATIONS[dst], _FORWARDS[index])
            else:
                dispatcher.queue_confirmation(dst, _DESTINATIONS[dst], _CONFIRMATIONS[index])
        if crash_at == len(steps):
            crash()

    env.process(program())
    env.run()
    return endpoint, dispatcher, queued, (sent_at_crash or [None])[0]


def _flushes(endpoint):
    """``(forward?, index) -> (sent at, destination)`` for every item sent."""
    flushed = {}
    for at, dst, operation, items in endpoint.sent:
        forward = operation == Opcode.TX_FORWARD.value
        for item in items:
            assert (forward, item) not in flushed, "an item was sent twice"
            flushed[(forward, item)] = (at, dst)
    return flushed


_crashes = st.one_of(st.none(), st.integers(0, _ITEMS))


@settings(max_examples=150, deadline=None)
@given(steps=_steps, crash_at=_crashes)
def test_at_quantum_zero_the_policy_is_the_fixed_period_flush(steps, crash_at):
    """Same flush instants, same batches in the same order, same counters."""
    new, new_dispatcher, _queued, _crash = _run(BatchDispatcher, 0.0, steps, crash_at)
    old, old_dispatcher, _queued, _crash = _run(ReferenceBatchDispatcher, 0.0, steps, crash_at)
    assert new.sent == old.sent
    assert new_dispatcher.statistics() == old_dispatcher.statistics()


@settings(max_examples=300, deadline=None)
@given(steps=_steps, quantum=st.sampled_from([0.005, 0.02, 0.05]), crash_at=_crashes)
# A flush armed at 0.02 for 0.01 + 0.05 once fired at 0.02 + (0.06 - 0.02),
# one rounding step late, so the item queued at 0.06 waited for it.
@example(steps=[(0.01, "cell-a", False)] * 6, quantum=0.05, crash_at=None)
def test_the_quantum_bounds_the_rate_and_the_wait(steps, quantum, crash_at):
    endpoint, dispatcher, queued, sent_at_crash = _run(
        BatchDispatcher, quantum, steps, crash_at
    )
    flushed = _flushes(endpoint)

    # At most one flush per destination per quantum (a flush sends at most
    # one forward batch and one confirmation batch, in one instant).
    for dst in _DESTINATIONS:
        instants = sorted({at for at, to, _op, _items in endpoint.sent if to == dst})
        assert all(
            later - earlier >= quantum - _SLACK for earlier, later in zip(instants, instants[1:])
        )

    for key, (at, dst, sent_before) in queued.items():
        if key not in flushed:
            continue
        sent_at, sent_to = flushed[key]
        assert sent_to == dst
        # No item waits longer than a quantum ...
        assert at <= sent_at <= at + quantum + _SLACK
        # ... and one queued at a destination idle for a quantum leaves in
        # the instant it was queued.
        earlier = [when for when, to, _op, _items in endpoint.sent[:sent_before] if to == dst]
        if not earlier or max(earlier) + quantum <= at:
            assert sent_at == at

    if sent_at_crash is None:
        # Every item is sent exactly once (``_flushes`` refuses a second).
        assert set(flushed) == set(queued)
    else:
        # A crash drops everything still queued: nothing leaves after it.
        assert len(endpoint.sent) == sent_at_crash
    assert dispatcher.items_dropped == len(queued) - len(flushed)
    assert dispatcher.items_coalesced == len(flushed)


@settings(max_examples=150, deadline=None)
@given(steps=_steps, crash_at=_crashes)
def test_without_a_quantum_every_item_leaves_alone_when_it_is_queued(steps, crash_at):
    """``quantum=None`` (batching off): one message per item, in queue order, at once."""
    endpoint, dispatcher, queued, sent_at_crash = _run(BatchDispatcher, None, steps, crash_at)
    flushed = _flushes(endpoint)
    assert all(len(items) == 1 for _at, _dst, _op, items in endpoint.sent)
    assert list(flushed) == [key for key in queued if key in flushed]
    for key, sent in flushed.items():
        assert sent == queued[key][:2]
    if sent_at_crash is None:
        assert set(flushed) == set(queued)
    else:
        assert len(endpoint.sent) == sent_at_crash
    assert dispatcher.items_dropped == len(queued) - len(flushed)
    assert dispatcher.batches_sent == dispatcher.items_coalesced == len(flushed)
