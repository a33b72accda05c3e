"""End-to-end transaction flows through a deployment (Fig. 7)."""

import pytest

from repro.client import BallotClient, BlockumulusClient, CasClient, FastMoneyClient
from repro.client import deploy_contract_source
from tests.conftest import make_deployment


def run(deployment, event):
    deployment.env.run(event)
    return event.value


def test_transfer_produces_verifiable_receipt(deployment):
    client = BlockumulusClient(deployment)
    fastmoney = FastMoneyClient(client)
    assert run(deployment, fastmoney.faucet(100)).ok
    result = run(deployment, fastmoney.transfer("0x" + "ab" * 20, 40))
    assert result.ok
    receipt = result.receipt
    assert receipt.verify(expected_cells=[cell.address for cell in deployment.cells])
    assert len(receipt.confirmations) == deployment.consortium_size
    assert result.latency > 0



def test_a_peer_signing_the_fingerprint_under_another_contract_is_mismatched(deployment):
    """A receipt carries one statement: a confirmation of another cannot join it."""
    client = BlockumulusClient(deployment)
    fastmoney = FastMoneyClient(client)
    assert run(deployment, fastmoney.faucet(100)).ok
    peer = deployment.cell(1)
    confirm = peer._confirm

    def confirm_under_another_name(dst_node, origin, reply_nonce, tx_id, _contract, *rest, **kw):
        # The right execution fingerprint, signed for a contract that was not called.
        confirm(dst_node, origin, reply_nonce, tx_id, "fastmoney-v2", *rest, **kw)

    peer._confirm = confirm_under_another_name
    result = run(deployment, fastmoney.transfer("0x" + "ab" * 20, 40))
    assert not result.ok and result.receipt is None
    assert result.error == "fingerprint mismatch across consortium cells"
    assert deployment.cell(0).metrics.counter(
        f"{deployment.cell(0).node_name}/fingerprint_mismatches"
    ) == 1

def test_state_replicated_identically_on_all_cells(deployment):
    client = BlockumulusClient(deployment)
    fastmoney = FastMoneyClient(client)
    run(deployment, fastmoney.faucet(100))
    run(deployment, fastmoney.transfer("0x" + "ab" * 20, 25))
    fingerprints = {
        cell.contracts.get("fastmoney").fingerprint_hex() for cell in deployment.cells
    }
    assert len(fingerprints) == 1
    for cell in deployment.cells:
        contract = cell.contracts.get("fastmoney")
        assert contract.query("balance_of", {"account": client.address.hex()}) == 75


def test_rejected_transaction_reported_to_client(deployment):
    client = BlockumulusClient(deployment)
    fastmoney = FastMoneyClient(client)
    result = run(deployment, fastmoney.transfer("0x" + "ab" * 20, 40))
    assert not result.ok
    assert "insufficient" in result.error
    # No cell applied the transfer.
    for cell in deployment.cells:
        assert cell.contracts.get("fastmoney").query(
            "balance_of", {"account": "0x" + "ab" * 20}) == 0


def test_query_served_by_service_cell(deployment):
    client = BlockumulusClient(deployment)
    fastmoney = FastMoneyClient(client)
    run(deployment, fastmoney.faucet(10))
    assert run(deployment, fastmoney.balance_of(client.address)) == 10
    assert run(deployment, fastmoney.total_supply()) == 10


def test_cas_upload_and_download(deployment):
    client = BlockumulusClient(deployment)
    cas = CasClient(client)
    result = run(deployment, cas.put(b"hello blockumulus"))
    assert result.ok
    digest = result.receipt.result["hash"]
    assert run(deployment, cas.reference_count(digest)) == 1
    downloaded = run(deployment, cas.get(digest))
    assert downloaded["content_hex"] == "0x" + b"hello blockumulus".hex()


def test_ballot_flow_across_cells(deployment):
    chair = BlockumulusClient(deployment)
    ballot = BallotClient(chair)
    closes = deployment.env.now + 1_000
    assert run(deployment, ballot.create_election(
        "e1", "adopt overlay consensus?", ["yes", "no"], closes)).ok
    voters = [BlockumulusClient(deployment, service_cell_index=i % deployment.consortium_size)
              for i in range(3)]
    for index, voter in enumerate(voters):
        choice = "yes" if index != 2 else "no"
        assert run(deployment, BallotClient(voter).vote("e1", choice)).ok
    tally = run(deployment, ballot.tally("e1"))
    assert tally == {"yes": 2, "no": 1}
    for cell in deployment.cells:
        assert cell.contracts.get("ballot").query("tally", {"election_id": "e1"}) == tally


def test_community_contract_deployment_via_deployer(deployment):
    client = BlockumulusClient(deployment)
    source = '''
class KVStore(BContract):
    TYPE = "community/kv"

    @bcontract_method
    def set(self, ctx, key, value):
        self.store.put("kv/" + key, value)
        return {"key": key}

    @bcontract_view
    def get(self, key):
        return self.store.get("kv/" + key)
'''
    result = run(deployment, deploy_contract_source(client, "kvstore", source))
    assert result.ok
    set_result = run(deployment, client.submit("kvstore", "set", {"key": "a", "value": 42}))
    assert set_result.ok
    assert run(deployment, client.query("kvstore", "get", {"key": "a"})) == 42
    for cell in deployment.cells:
        assert cell.contracts.contains("kvstore")


def test_subscription_enforcement():
    deployment = make_deployment(enforce_subscriptions=True)
    client = BlockumulusClient(deployment)
    fastmoney = FastMoneyClient(client)
    denied = run(deployment, fastmoney.faucet(10))
    assert not denied.ok and "subscription" in denied.error
    deployment.env.run(client.subscribe())
    allowed = run(deployment, fastmoney.faucet(10))
    assert allowed.ok
    cell = deployment.cell(0)
    assert cell.subscriptions.is_subscribed(client.address)
    assert cell.subscriptions.bill(client.address, deployment.env.now) >= 0


def test_four_cell_deployment_receipt_covers_all_cells(four_cell_deployment):
    deployment = four_cell_deployment
    client = BlockumulusClient(deployment, service_cell_index=2)
    fastmoney = FastMoneyClient(client)
    run(deployment, fastmoney.faucet(50))
    result = run(deployment, fastmoney.transfer("0x" + "cd" * 20, 20))
    assert result.ok
    assert len(result.receipt.confirmations) == 4
    assert result.receipt.service_cell == deployment.cell(2).address


def test_duplicate_submission_rejected(deployment):
    client = BlockumulusClient(deployment)
    fastmoney = FastMoneyClient(client)
    run(deployment, fastmoney.faucet(100))
    # Submitting the exact same signed envelope twice: the second admission
    # fails at the ledger (duplicate tx id).
    from repro.messages import Envelope, Opcode

    envelope = Envelope.create(
        signer=client.signer, recipient=client.service_cell.address,
        operation=Opcode.TX_SUBMIT,
        data={"contract": "fastmoney", "method": "transfer",
              "args": {"to": "0x" + "ab" * 20, "amount": 1}},
        timestamp=deployment.env.now, nonce=client.nonces.next(),
    )
    network = deployment.network
    network.send(client.node_name, client.service_cell.node_name, envelope, envelope.byte_size())
    network.send(client.node_name, client.service_cell.node_name, envelope, envelope.byte_size())
    deployment.env.run(until=deployment.env.now + 5)
    ledger_stats = deployment.cell(0).ledger.statistics()
    assert ledger_stats["executed"] >= 1
    balances = {
        cell.contracts.get("fastmoney").query("balance_of", {"account": "0x" + "ab" * 20})
        for cell in deployment.cells
    }
    assert balances == {1}
