"""The message endpoint: one nonce sequence, one send, one request -> reply map."""

import random

import pytest

from repro.core.batching import BatchDispatcher
from repro.core.receipts import Confirmation, LinkConfirmation
from repro.messages import Envelope, NonceFactory, Opcode, SimulatedSigner
from repro.messages.endpoint import Endpoint
from repro.sim import Environment, Timeout
from repro.sim.network import Network


class Node:
    """A network node that keeps what arrives and hands replies to its endpoint."""

    def __init__(self, env, network, name, silent=lambda: False):
        self.inbox = []
        self.endpoint = Endpoint(env, network, name, SimulatedSigner(f"endpoint/{name}"), silent)
        network.register(name, handler=self.deliver)

    def deliver(self, src_node, envelope, size):
        self.inbox.append(envelope)
        self.endpoint.resolve(src_node, envelope)

    @property
    def address(self):
        return self.endpoint.signer.address

    def answer(self, dst, request, data=None):
        """Reply to ``request`` (as whoever this node is)."""
        return self.endpoint.send(
            dst.endpoint.node_name, request.sender, Opcode.PONG, data or {"node": "x"},
            reply_to=request.nonce,
        )


@pytest.fixture
def net():
    env = Environment()
    network = Network(env, random.Random(7))
    return env, network, *(Node(env, network, name) for name in ("asker", "cell", "other"))


def ask(asker, cell):
    return asker.endpoint.ask(cell.endpoint.node_name, cell.address, Opcode.PING, {"probe": True})


def test_a_reply_from_the_cell_that_was_asked_fires_the_waiter_with_the_envelope(net):
    env, _network, asker, cell, _other = net
    request, waiter = ask(asker, cell)
    env.run()
    assert cell.inbox == [request] and request.verify() and not waiter.triggered
    cell.answer(asker, request)
    reply = env.run(waiter)
    assert isinstance(reply, Envelope) and reply.payload.reply_to == request.nonce
    assert reply.sender == cell.address and not asker.endpoint._pending


def test_a_request_to_an_offline_node_fires_none_at_once_and_leaves_nothing_pending(net):
    env, network, asker, cell, _other = net
    network.set_online("cell", False)
    _request, waiter = ask(asker, cell)
    assert waiter.triggered and waiter.value is None, "no clock tick may pass first"
    assert not asker.endpoint._pending
    assert env.run(waiter) is None and env.now == 0.0 and cell.inbox == []


def test_a_reply_from_another_sender_resolves_nothing_and_the_request_keeps_waiting(net):
    env, _network, asker, cell, other = net
    request, waiter = ask(asker, cell)
    env.run()
    other.answer(asker, request)  # the right nonce, the wrong cell
    env.run()
    assert len(asker.inbox) == 1 and not waiter.triggered
    assert asker.endpoint.resolve("other", asker.inbox[0]) is False, (
        "told apart from an unsolicited message"
    )
    assert list(asker.endpoint._pending) == [request.nonce]
    cell.answer(asker, request)
    assert env.run(waiter).sender == cell.address


def test_a_reply_in_the_asked_cells_name_over_another_link_keeps_the_request_waiting(net):
    env, network, asker, cell, other = net
    request, waiter = ask(asker, cell)
    env.run()
    # An unsigned reply's sender does not travel: the requester supplies the
    # cell it asked, so only the link tells who answered.
    forged = Envelope.unsigned(cell.address, "sim", asker.address, Opcode.PONG, {}, env.now,
                               reply_to=request.nonce)
    network.send("other", "asker", forged, forged.byte_size())
    env.run()
    assert asker.inbox == [forged] and not waiter.triggered
    assert asker.endpoint.resolve("other", forged) is False
    cell.answer(asker, request)
    assert env.run(waiter).sender == cell.address


def test_unsolicited_and_duplicate_replies_are_dropped(net):
    env, _network, asker, cell, _other = net
    request, waiter = ask(asker, cell)
    env.run()
    cell.answer(asker, request)
    cell.answer(asker, request)  # the network redelivers
    cell.endpoint.send("asker", asker.address, Opcode.PING, {})  # not a reply at all
    first = env.run(waiter)
    env.run()
    assert len(asker.inbox) == 3 and waiter.value is first
    assert all(asker.endpoint.resolve("cell", envelope) for envelope in asker.inbox)


def test_resolve_can_fire_the_waiter_with_the_body_its_caller_already_parsed(net):
    env, _network, asker, cell, _other = net
    request, waiter = ask(asker, cell)
    reply = cell.endpoint.sign(asker.address, Opcode.PONG, {}, request.nonce)
    asker.endpoint.resolve("cell", reply, "body")
    assert env.run(waiter) == "body"


def test_a_silent_endpoint_puts_nothing_on_the_network(net):
    env, network, _asker, cell, _other = net
    crashed = [False]
    quiet = Node(env, network, "quiet", silent=lambda: crashed[0])
    assert quiet.endpoint.send("cell", cell.address, Opcode.PING, {}) is True
    crashed[0] = True
    assert quiet.endpoint.send("cell", cell.address, Opcode.PING, {}) is False
    _request, waiter = ask(quiet, cell)
    assert waiter.triggered and waiter.value is None and not quiet.endpoint._pending
    env.run()
    assert len(cell.inbox) == 1 and network.messages_between("quiet", "cell") == 1


def ask_with_deadline(asker, cell, deadline=1.0):
    return asker.endpoint.ask(
        cell.endpoint.node_name, cell.address, Opcode.PING, {"probe": True}, deadline=deadline
    )


def test_a_deadline_fires_none_and_makes_a_late_reply_a_no_op(net):
    env, _network, asker, cell, _other = net
    request, answer = ask_with_deadline(asker, cell)
    assert env.run(answer) is None and env.now == 1.0
    assert not asker.endpoint._pending
    cell.answer(asker, request)
    env.run()
    assert len(asker.inbox) == 1 and answer.value is None


def test_a_reply_before_the_deadline_fires_with_the_reply_and_nothing_stays_pending(net):
    env, _network, asker, cell, _other = net
    request, answer = ask_with_deadline(asker, cell)
    env.run(until=0.5)
    cell.answer(asker, request)
    reply = env.run(answer)
    assert reply.sender == cell.address and reply.payload.reply_to == request.nonce
    assert env.now < 1.0 and not asker.endpoint._pending


def test_an_answer_settled_by_its_reply_leaves_the_deadline_timer(net):
    """The timer stays scheduled (no event is removed), but it no longer
    keeps the answer, its request and its waiter alive until it fires."""
    env, _network, asker, cell, _other = net
    request, answer = ask_with_deadline(asker, cell, deadline=900.0)
    env.run(until=0.5)
    cell.answer(asker, request)
    env.run(answer)
    timers = [event for _at, _seq, event in env._queue if isinstance(event, Timeout)]
    assert [timer.delay for timer in timers] == [900.0]
    assert timers[0].callbacks == []


def test_a_request_that_never_left_fires_none_at_once_and_schedules_no_deadline(net):
    env, network, asker, cell, _other = net
    network.set_online("cell", False)
    _request, answer = ask_with_deadline(asker, cell, deadline=5.0)
    assert answer.triggered and answer.value is None and not asker.endpoint._pending
    env.run()
    assert env.now == 0.0, "no timer may keep the run going"


@pytest.mark.parametrize("replied", [True, False], ids=["replied", "deadline passed"])
def test_a_deadline_wait_resumes_its_caller_where_a_race_against_a_timer_would(net, replied):
    """Same-instant order is kept: a caller waiting on the answer resumes as
    many steps after the reply (or the deadline) as one racing ``any_of``
    over the reply's event and a timer — whichever of the two asked first
    resumes first."""
    env, _network, asker, cell, _other = net

    def resumption_order(labels):
        resumed, requests = [], []

        def wait(label, event):
            yield event
            resumed.append(label)

        for label in labels:
            if label == "answer":
                request, event = ask_with_deadline(asker, cell)
            else:
                request, waiter = ask(asker, cell)
                event = env.any_of([waiter, env.timeout(1.0)])
            requests.append(request)
            env.process(wait(label, event))
        if replied:
            env.run(until=env.now + 0.5)
            for request in requests:  # both replies resolve in one step
                asker.endpoint.resolve(
                    "cell", cell.endpoint.sign(asker.address, Opcode.PONG, {}, request.nonce)
                )
        env.run()
        return resumed

    assert resumption_order(["answer", "race"]) == ["answer", "race"]
    assert resumption_order(["race", "answer"]) == ["race", "answer"]


def test_the_nonces_of_one_node_are_one_sequence_across_sign_ask_and_batch_flushes(net):
    env, _network, asker, cell, _other = net
    endpoint = asker.endpoint
    batcher = BatchDispatcher(endpoint, quantum=0.01)
    expected = NonceFactory(asker.address)

    signed = endpoint.sign(cell.address, Opcode.TX_SUBMIT, {})
    for_another = endpoint.sign(
        cell.address, Opcode.TX_SUBMIT, {}, signer=SimulatedSigner("throwaway")
    )
    request, _waiter = ask(asker, cell)
    confirmation = Confirmation.create(
        endpoint.signer, "0x" + "11" * 32, "pay", "0x" + "22" * 32, "executed", 0.0
    )
    batcher.queue_forward("cell", cell.address, signed)
    env.run()  # two flushes, so they arrive in the order they were signed
    batcher.queue_confirmation("cell", cell.address, LinkConfirmation.of(confirmation, signed))
    env.run()
    endpoint.send("cell", cell.address, Opcode.PING, {})
    env.run()

    assert [envelope.operation for envelope in cell.inbox] == [
        Opcode.PING, Opcode.TX_FORWARD, Opcode.TX_CONFIRM, Opcode.PING,
    ]
    assert cell.inbox[0] == request
    # A forward and a confirmation batch travel unsigned and draw no nonce.
    unsigned = cell.inbox[1:3]
    del cell.inbox[1:3]
    assert all(batch.signature is None and batch.nonce is None for batch in unsigned)
    sent = [signed, for_another, *cell.inbox]
    assert [envelope.nonce for envelope in sent] == [expected.next() for _ in sent]
    # The throwaway identity signed; the nonce and the clock are still the node's.
    assert for_another.sender != asker.address and for_another.verify()
    assert batcher.statistics()["batches_sent"] == 2
