"""The client API: submissions, queries, contingency submissions."""

import pytest

from repro.client import BlockumulusClient, ClientError, FastMoneyClient, TransactionResult
from repro.crypto.keys import PrivateKey
from repro.messages import Opcode
from tests.conftest import make_deployment


def run(deployment, event):
    deployment.env.run(event)
    return event.value


def test_client_has_unique_node_and_address(deployment):
    a = BlockumulusClient(deployment)
    b = BlockumulusClient(deployment)
    assert a.node_name != b.node_name
    assert a.address != b.address


def test_submit_returns_transaction_result(deployment):
    client = BlockumulusClient(deployment)
    result = run(deployment, client.submit("fastmoney", "faucet", {"amount": 5}))
    assert isinstance(result, TransactionResult)
    assert result.ok and result.receipt is not None
    assert result.tx_id == result.receipt.tx_id
    assert result.latency > 0


def test_the_tx_id_is_the_signed_transactions_whatever_the_receipt_says(deployment):
    cell = deployment.cell(0)
    client = BlockumulusClient(deployment)
    honest_reply, receipts = cell.reply, []

    def recording_reply(dst_node, request, operation, data):
        if operation is Opcode.TX_RECEIPT:
            receipts.append(data)
        honest_reply(dst_node, request, operation, data)

    cell.reply = recording_reply
    first = run(deployment, client.submit("fastmoney", "faucet", {"amount": 5}))
    assert first.ok and len(receipts) == 1

    # The service cell answers the next submission with the first one's receipt.
    asked = []

    def answer_with_the_first_receipt(src_node, envelope, body):
        asked.append(envelope)
        honest_reply(src_node, envelope, Opcode.TX_RECEIPT, receipts[0])

    cell.service._serve_submission = answer_with_the_first_receipt
    second = run(deployment, client.submit("fastmoney", "faucet", {"amount": 6}))
    assert second.tx_id == asked[0].payload.hash_hex() != first.tx_id
    # Its co-signers signed the first transaction, not this one.
    assert (second.ok, second.error, second.receipt) == (
        False, "receipt failed verification", None
    )


def test_submit_with_override_signer(deployment):
    client = BlockumulusClient(deployment)
    throwaway = deployment.make_client_signer("throwaway-account")
    result = run(deployment, client.submit("fastmoney", "faucet", {"amount": 7}, signer=throwaway))
    assert result.ok
    fastmoney = deployment.cell(0).contracts.get("fastmoney")
    assert fastmoney.query("balance_of", {"account": throwaway.address.hex()}) == 7


def test_query_error_propagates(deployment):
    client = BlockumulusClient(deployment)
    event = client.query("fastmoney", "nonexistent_view", {})
    with pytest.raises(ClientError):
        deployment.env.run(event)


def test_unknown_contract_reported_as_error(deployment):
    client = BlockumulusClient(deployment)
    result = run(deployment, client.submit("ghost-contract", "do", {}))
    assert not result.ok
    assert "ghost-contract" in result.error


def test_offline_service_cell_fails_fast(deployment):
    client = BlockumulusClient(deployment)
    deployment.network.set_online(deployment.cell(0).node_name, False)
    result = run(deployment, client.submit("fastmoney", "faucet", {"amount": 1}))
    assert not result.ok and "unreachable" in result.error


def test_contingency_submission_lands_on_chain(deployment):
    client = BlockumulusClient(deployment)
    eth_key = PrivateKey.from_seed("contingency-payer")
    deployment.eth_node.chain.fund(eth_key.address, 10 ** 20)
    event = client.submit_contingency("fastmoney", "faucet", {"amount": 9}, eth_key=eth_key)
    receipt = deployment.env.run(event)
    assert receipt.success
    stored = deployment.registry_contract.all_contingencies(deployment.eth_node.chain.state)
    assert len(stored) == 1
    assert stored[0]["payload"]["data"]["contract"] == "fastmoney"


def test_clients_can_use_different_service_cells(four_cell_deployment):
    deployment = four_cell_deployment
    clients = [BlockumulusClient(deployment, service_cell_index=i) for i in range(4)]
    results = [run(deployment, FastMoneyClient(c).faucet(3)) for c in clients]
    assert all(result.ok for result in results)
    balances = [
        deployment.cell(0).contracts.get("fastmoney").query(
            "balance_of", {"account": client.address.hex()})
        for client in clients
    ]
    assert balances == [3, 3, 3, 3]
