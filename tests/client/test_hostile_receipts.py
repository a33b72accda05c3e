"""A service cell may lie in its receipt: the client checks what it is told.

Each row makes the service cell pass every ``TX_RECEIPT`` it sends through
one tampering, and requires the client to end the submission with
``ok=False``, a named error and one tick of its refusal counter — never to
report the transaction as confirmed.  The rows are the ways a service cell
can tamper with a receipt that its peers co-signed honestly: it changes
what the receipt states, adds a co-signer, forges one or answers with
another transaction's receipt.  A peer that learned the client's nonce
from the forward may also answer first, in the service cell's name; the
client takes a reply only over the link to the cell it asked.

The confirmations a receipt is built from are statements their reader
rebuilds too: a peer's leaves out the fingerprint of the service cell's
own execution, so a peer that returned another result has signed a
statement that does not verify (counted ``mismatched``), and such an item
is taken only over the link to the peer it names, so one forged in a
peer's name neither ends the wait for the peer's own nor answers for a
crashed peer.  While a cell
is excluded, a receipt names its co-signers.
"""

import dataclasses

import pytest

from repro.client import BlockumulusClient, FastMoneyClient
from repro.core.executor import ExecutionOutcome
from repro.core.receipts import (
    CompactReceipt,
    Confirmation,
    ConfirmationBatch,
    CoSigner,
    LinkConfirmation,
    called_contract,
    called_method,
)
from repro.messages import Envelope, Opcode, SimulatedSigner
from tests.conftest import make_deployment

OUTSIDER = SimulatedSigner("hostile-receipts/outsider")

FAILED = "receipt failed verification"
OUTSIDE = "receipt co-signed by a cell outside the consortium"


def statement_signed_by(signer, request, receipt, timestamp):
    """``signer``'s confirmation of what ``receipt`` states about ``request``."""
    tx_id = request.payload.hash_hex()
    contract, method = called_contract(request), called_method(request)
    fingerprint = ExecutionOutcome(
        tx_id, contract, method, "executed", receipt.result, None, b""
    ).execution_fingerprint_hex()
    return Confirmation.create(signer, tx_id, contract, fingerprint, "executed", timestamp)


def swap_the_result(_cell, request, receipt, _sent):
    return dataclasses.replace(receipt, result={"lie": True})


def add_an_outsider(cell, request, receipt, _sent):
    outsider = statement_signed_by(OUTSIDER, request, receipt, 1.0)
    cosigner = CoSigner(outsider.cell, outsider.timestamp, outsider.signature)
    # One co-signer more than the consortium's other cells: every one is named.
    peers = [address for address in cell.invariants.cell_addresses if address != cell.address]
    named = (dataclasses.replace(peer, cell=address)
             for peer, address in zip(receipt.cosigners, peers))
    return dataclasses.replace(receipt, cosigners=(*named, cosigner))


def forge_the_peer(_cell, request, receipt, _sent):
    peer, *rest = receipt.cosigners
    forged = statement_signed_by(OUTSIDER, request, receipt, peer.timestamp)
    return dataclasses.replace(
        receipt, cosigners=(dataclasses.replace(peer, signature=forged.signature), *rest)
    )


def replay_the_first(_cell, _request, receipt, sent):
    return sent[0] if sent else receipt


def drop_the_peer(_cell, _request, receipt, _sent):
    return dataclasses.replace(receipt, cosigners=())


def tampering(cell, tamper):
    """Make ``cell`` pass each receipt it sends through ``tamper``; returns what it sent."""
    honest, sent = cell.reply, []

    def reply(dst_node, request, operation, data):
        if operation is Opcode.TX_RECEIPT:
            receipt = tamper(cell, request, CompactReceipt.from_data(data), sent)
            sent.append(receipt)
            data = receipt.to_data()
        honest(dst_node, request, operation, data)

    cell.reply = reply
    return sent


def submitted(tamper, transactions=2):
    """The results of ``transactions`` faucet calls through a tampering service cell."""
    deployment = make_deployment(signature_scheme="sim")
    client = BlockumulusClient(deployment)
    money = FastMoneyClient(client)
    tampering(deployment.cell(0), tamper)
    results = []
    for amount in range(1, transactions + 1):
        event = money.faucet(amount)
        deployment.env.run(event)
        results.append(event.value)
    refused = deployment.metrics.counters.get(f"{client.node_name}/refused_receipts", 0)
    return results, refused


def test_an_honest_receipt_is_taken():
    results, refused = submitted(lambda _cell, _request, receipt, _sent: receipt)
    assert all(result.ok and result.error is None for result in results)
    assert refused == 0


HOSTILE = {
    "result swapped": (swap_the_result, FAILED),
    "co-signer outside the registry": (add_an_outsider, OUTSIDE),
    "peer co-signature under another key": (forge_the_peer, FAILED),
}


@pytest.mark.parametrize("tamper, error", HOSTILE.values(), ids=HOSTILE)
def test_a_tampered_receipt_is_refused(tamper, error):
    results, refused = submitted(tamper)
    assert [(result.ok, result.error, result.receipt) for result in results] == [
        (False, error, None)
    ] * len(results)
    assert refused == len(results)


def test_another_transactions_receipt_is_refused():
    (first, second), refused = submitted(replay_the_first)
    assert first.ok and first.receipt.tx_id == first.tx_id
    assert (second.ok, second.error, second.receipt) == (False, FAILED, None)
    assert refused == 1


def test_a_peer_answering_first_in_the_service_cells_name_is_not_heard():
    deployment = make_deployment(signature_scheme="sim")
    client = BlockumulusClient(deployment)
    peer = deployment.cell(1)
    honest = peer.peer._serve_forwards

    def forward_and_forge(src_node, forward, body):
        honest(src_node, forward, body)
        for request in body.envelopes(forward.sender):
            # On a link an unsigned reply's sender does not travel, so the
            # peer can write it as the asked cell's.
            forged = CompactReceipt(0, {"lie": True}, b"\x00" * 65).to_data()
            reply = Envelope.unsigned(client.service_cell.address, "sim", request.sender,
                                      Opcode.TX_RECEIPT, forged, deployment.env.now,
                                      reply_to=request.nonce)
            deployment.network.send(peer.node_name, client.node_name, reply, reply.byte_size())

    peer.peer._serve_forwards = forward_and_forge
    heard, resolve = [], client.endpoint.resolve
    client.endpoint.resolve = lambda src_node, reply: heard.append(src_node) or resolve(
        src_node, reply
    )
    event = FastMoneyClient(client).faucet(5)
    deployment.env.run(event)
    result = event.value
    assert heard == [peer.node_name, client.service_cell.node_name]  # the forgery came first
    assert result.ok and result.receipt.result != {"lie": True}
    assert deployment.metrics.counters.get(f"{client.node_name}/refused_receipts", 0) == 0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: which cells a client must require while one is excluded "
    "is open, so a receipt without a peer co-signer still passes",
)
def test_a_receipt_without_its_peer_co_signer_is_refused():
    results, refused = submitted(drop_the_peer)
    assert not any(result.ok for result in results)
    assert refused == len(results)


def test_a_peer_that_returned_another_result_is_counted_mismatched():
    """Its confirmation leaves the fingerprint to the service cell, whose own
    execution's is another: the co-signature fails, and the transaction
    reverts for the reason a stated mismatch gives, as soon as it would."""
    deployment = make_deployment(signature_scheme="sim")
    client = BlockumulusClient(deployment)
    service, peer = deployment.cell(0), deployment.cell(1)
    stage, sent = peer.peer.execute, []
    honest, queue = stage.run, peer.batcher.queue_confirmation

    def another_result(entry):
        outcome = yield from honest(entry)
        return dataclasses.replace(outcome, result={"lie": True})

    stage.run = another_result
    peer.batcher.queue_confirmation = lambda *args: sent.append(args[-1]) or queue(*args)
    event = FastMoneyClient(client).faucet(1)
    deployment.env.run(event)
    result = event.value
    assert (result.ok, result.error) == (False, "fingerprint mismatch across consortium cells")
    assert [item.fingerprint_hex for item in sent] == [None]
    # The peer's own answer ends the wait: the revert comes one round trip
    # after submission (0.0326 sim-s, as when the fingerprint travelled),
    # not at the 10 s forwarding deadline.
    assert round(deployment.env.now, 4) == 0.0326
    counters = service.metrics.counters
    assert counters.get(f"{service.node_name}/fingerprint_mismatches") == 1
    assert counters.get(f"{service.node_name}/confirm_auth_failures", 0) == 0
    # Not a missed deadline: nothing is held against the peer.
    assert service.consensus.standing(peer.address).consecutive_misses == 0


def forging_while_executing(deployment, service, peer, forgeries):
    """Make an outside node send, as ``service`` starts executing each call,
    one item in ``peer``'s name that leaves its fingerprint to the service cell."""
    deployment.network.register("forger")
    stage = service.service.execute
    honest = stage.run

    def forged_while_executing(entry):
        now = deployment.env.now
        forged = Confirmation.create(
            OUTSIDER, entry.tx_id, called_contract(entry.envelope), "0x" + "00" * 32,
            "executed", now,
        )
        item = LinkConfirmation.of(forged, entry.envelope, forged.fingerprint_hex)
        assert item.fingerprint_hex is None
        envelope = Envelope.unsigned(
            peer.address, peer.signer.scheme, service.address, Opcode.TX_CONFIRM,
            ConfirmationBatch((item,)).data_at(now), now,
        )
        deployment.network.send("forger", service.node_name, envelope, envelope.byte_size())
        pending = service.service._pending[entry.tx_id]
        yield deployment.env.timeout(0.2)
        forgeries.append(pending)
        return (yield from honest(entry))

    stage.run = forged_while_executing


def test_a_confirmation_forged_while_the_service_cell_executes_leaves_the_honest_one():
    """An item that leaves its fingerprint to the service cell is taken only
    over the link to the cell it names: the forged one is refused on
    arrival, and the peer's own co-signature commits."""
    deployment = make_deployment(signature_scheme="sim")
    client = BlockumulusClient(deployment)
    service, peer = deployment.cell(0), deployment.cell(1)
    pendings = []
    forging_while_executing(deployment, service, peer, pendings)
    event = FastMoneyClient(client).faucet(3)
    deployment.env.run(event)
    result = event.value
    assert result.ok, result.error
    assert result.receipt.verify(expected_cells=[service.address, peer.address])
    (pending,) = pendings
    assert pending.refuted == set() and set(pending.confirmations) == {peer.address}
    assert service.metrics.counter(f"{service.node_name}/confirm_auth_failures") == 1


def test_items_forged_in_a_crashed_peers_name_do_not_keep_it_from_exclusion():
    """A crashed peer stays missing whatever is sent in its name from
    elsewhere: it is excluded after the usual number of missed deadlines."""
    deployment = make_deployment(
        signature_scheme="sim", consortium_size=3, forwarding_deadline=2.0, miss_threshold=3,
    )
    fastmoney = FastMoneyClient(BlockumulusClient(deployment))
    deployment.env.run(fastmoney.faucet(100))
    service, crashed = deployment.cell(0), deployment.cell(1)
    crashed.crash()
    pendings = []
    forging_while_executing(deployment, service, crashed, pendings)
    errors = []
    for _ in range(3):
        event = fastmoney.transfer("0x" + "aa" * 20, 1)
        deployment.env.run(event)
        errors.append(event.value.error)
    assert errors == ["forwarding deadline missed by one or more cells"] * 3
    assert service.metrics.counter(f"{service.node_name}/confirm_auth_failures") == 3
    assert len(pendings) == 3 and all(not pending.refuted for pending in pendings)
    assert crashed.address in service.consensus.excluded_cells()
    event = fastmoney.transfer("0x" + "aa" * 20, 1)
    deployment.env.run(event)
    assert event.value.ok, event.value.error


def test_a_receipt_given_while_a_cell_is_excluded_names_its_co_signers():
    """A standby cell is a consortium member that starts excluded: the peer
    co-signer is not the consortium's other cells, so it is named."""
    deployment = make_deployment(signature_scheme="sim", standby_cells=1)
    client = BlockumulusClient(deployment)
    service, peer, standby = deployment.cells
    assert not service.consensus.is_active(standby.address)
    sent = tampering(service, lambda _cell, _request, receipt, _sent: receipt)
    event = FastMoneyClient(client).faucet(2)
    deployment.env.run(event)
    result = event.value
    assert result.ok, result.error
    assert [cosigner.cell for cosigner in sent[0].cosigners] == [peer.address]
    assert result.receipt.verify(expected_cells=[service.address, peer.address])
