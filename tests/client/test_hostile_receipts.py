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
"""

import dataclasses

import pytest

from repro.client import BlockumulusClient, FastMoneyClient
from repro.core.executor import ExecutionOutcome
from repro.core.receipts import (
    CompactReceipt,
    Confirmation,
    CoSigner,
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


def swap_the_result(request, receipt, _sent):
    return dataclasses.replace(receipt, result={"lie": True})


def add_an_outsider(request, receipt, _sent):
    outsider = statement_signed_by(OUTSIDER, request, receipt, 1.0)
    cosigner = CoSigner(outsider.cell, outsider.timestamp, outsider.signature)
    return dataclasses.replace(receipt, cosigners=(*receipt.cosigners, cosigner))


def forge_the_peer(request, receipt, _sent):
    peer, *rest = receipt.cosigners
    forged = statement_signed_by(OUTSIDER, request, receipt, peer.timestamp)
    return dataclasses.replace(
        receipt, cosigners=(dataclasses.replace(peer, signature=forged.signature), *rest)
    )


def replay_the_first(_request, receipt, sent):
    return sent[0] if sent else receipt


def drop_the_peer(_request, receipt, _sent):
    return dataclasses.replace(receipt, cosigners=())


def tampering(cell, tamper):
    """Make ``cell`` pass each receipt it sends through ``tamper``; returns what it sent."""
    honest, sent = cell.reply, []

    def reply(dst_node, request, operation, data):
        if operation is Opcode.TX_RECEIPT:
            receipt = tamper(request, CompactReceipt.from_data(data), sent)
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
    results, refused = submitted(lambda _request, receipt, _sent: receipt)
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
