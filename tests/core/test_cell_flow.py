"""End-to-end transaction flows through a deployment (Fig. 7)."""

import pytest

from repro.client import BallotClient, BlockumulusClient, CasClient, FastMoneyClient
from repro.client import deploy_contract_source
from repro.core.stages import _PendingTransaction
from repro.core.receipts import Confirmation, ConfirmationBatch, LinkConfirmation
from repro.messages import ForwardBatch, Opcode
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



MISMATCH = "fingerprint mismatch across consortium cells"
#: How a peer's signed confirmation can differ from the statement the service
#: cell signs: what the peer signs instead, the client's error, and the
#: service cell's ``fingerprint_mismatches``.  A confirmation of another
#: transaction never meets this one: the service cell files each under its
#: own ``tx_id`` (``test_a_confirmation_is_filed_under_its_own_transaction``).
ANOTHER_STATEMENT = {
    # The right execution fingerprint, signed for a contract that was not called.
    "contract": (dict(contract="fastmoney-v2"), MISMATCH, 1),
    "fingerprint": (dict(fingerprint_hex="0x" + "99" * 32), MISMATCH, 1),
    "executed with an error": (dict(error="late"), MISMATCH, 1),
    "rejected": (dict(status="rejected", error="insufficient balance"), "insufficient balance", 0),
}


@pytest.mark.parametrize("signed, error, mismatches", ANOTHER_STATEMENT.values(),
                         ids=ANOTHER_STATEMENT)
def test_a_peer_confirmation_of_another_statement_earns_no_receipt(
    deployment, signed, error, mismatches
):
    """A receipt carries one statement: a confirmation of another cannot join it."""
    client = BlockumulusClient(deployment)
    fastmoney = FastMoneyClient(client)
    assert run(deployment, fastmoney.faucet(100)).ok
    peer = deployment.cell(1)
    confirm = peer.peer._confirm

    def confirm_another_statement(
        dst_node, origin, client_envelope, tx_id, contract, fingerprint_hex, status, error=None
    ):
        statement = dict(contract=contract, fingerprint_hex=fingerprint_hex, status=status,
                         error=error)
        confirm(dst_node, origin, client_envelope, tx_id, **{**statement, **signed})

    peer.peer._confirm = confirm_another_statement
    result = run(deployment, fastmoney.transfer("0x" + "ab" * 20, 40))
    assert not result.ok and result.receipt is None
    assert result.error == error
    assert deployment.cell(0).metrics.counter(
        f"{deployment.cell(0).node_name}/fingerprint_mismatches"
    ) == mismatches


def test_a_confirmation_is_filed_under_its_own_transaction(deployment):
    """Two transactions pending at once: each peer confirmation reaches its own only."""
    service, peer = deployment.cell(0), deployment.cell(1)
    client = BlockumulusClient(deployment)
    forwarded = [
        client.endpoint.sign(
            service.address, Opcode.TX_SUBMIT,
            {"contract": "fastmoney", "method": "faucet", "args": {"amount": amount}},
        )
        for amount in (1, 2)
    ]
    pending = {}
    for envelope in forwarded:
        entry = service.ledger.admit(envelope, cycle=0)
        pending[entry.tx_id] = _PendingTransaction(deployment.env, entry.tx_id, {peer.address})
        service.service._pending[entry.tx_id] = pending[entry.tx_id]
    first, second = pending
    confirmation = Confirmation.create(
        peer.signer, second, "fastmoney", "0x" + "00" * 32, "executed", deployment.env.now
    )
    _send_confirmation(deployment, peer, confirmation, forwarded[1])
    assert pending[first].confirmations == {} and not pending[first].all_received.triggered
    assert pending[second].confirmations == {peer.address: confirmation}
    assert pending[second].all_received.triggered


@pytest.mark.parametrize("service, lied_to", [(0, True), (1, False)])
def test_an_equivocating_peer_fails_the_receipt_of_the_cell_it_lied_to(service, lied_to):
    """Contradictory signed confirmations are caught where they meet: the
    service cell that got the flipped fingerprint never assembles a receipt."""
    deployment = make_deployment(consortium_size=3, signature_scheme="sim")
    fastmoney = FastMoneyClient(BlockumulusClient(deployment, service_cell_index=service))
    assert run(deployment, fastmoney.faucet(100)).ok
    liar = deployment.cell(2)
    liar.fault.equivocate = True
    result = run(deployment, fastmoney.transfer("0x" + "ab" * 20, 40))
    lies = [event["to"] for event in liar.fault.events if event["channel"] == "confirmation"]
    service_cell = deployment.cell(service)
    mismatches = deployment.metrics.counter(f"{service_cell.node_name}/fingerprint_mismatches")
    if lied_to:
        assert lies == [service_cell.address.hex()]
        assert not result.ok and result.receipt is None
        assert result.error == "fingerprint mismatch across consortium cells"
        assert mismatches == 1
    else:
        assert lies == [] and mismatches == 0
        assert result.ok
        assert result.receipt.verify(expected_cells=[cell.address for cell in deployment.cells])

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


def _send_confirmation(deployment, sender, confirmation, forwarded) -> None:
    """``sender`` sends the service cell a ``TX_CONFIRM`` carrying ``confirmation``."""
    service = deployment.cell(0)
    batch = ConfirmationBatch((LinkConfirmation.of(confirmation, forwarded),))
    sender.endpoint.send(service.node_name, service.address, Opcode.TX_CONFIRM, batch.to_data())
    deployment.run(until=deployment.env.now + 1.0)


def test_a_confirmation_for_a_transaction_never_admitted_is_refused():
    """Nothing to rebuild it from: counted like a bad signature, never pending."""
    deployment = make_deployment(signature_scheme="sim")
    service, peer = deployment.cell(0), deployment.cell(1)
    client = BlockumulusClient(deployment)
    forwarded = client.endpoint.sign(
        service.address, Opcode.TX_SUBMIT,
        {"contract": "fastmoney", "method": "faucet", "args": {"amount": 1}},
    )
    tx_id = forwarded.payload.hash_hex()
    # Even a transaction the cell is waiting on does not make the item admissible.
    pending = _PendingTransaction(deployment.env, tx_id, {peer.address})
    service.service._pending[tx_id] = pending
    confirmation = Confirmation.create(
        peer.signer, tx_id, "fastmoney", "0x" + "00" * 32, "executed", deployment.env.now
    )
    _send_confirmation(deployment, peer, confirmation, forwarded)
    assert not service.ledger.contains(tx_id)
    assert service.metrics.counter(f"{service.node_name}/confirm_auth_failures") == 1
    assert pending.confirmations == {} and not pending.all_received.triggered


def test_a_confirmation_relayed_by_another_cell_does_not_verify(four_cell_deployment):
    """The signer of a link item is the envelope's sender: a relayed one fails ``verify()``."""
    deployment = four_cell_deployment
    service, signer, relay = deployment.cell(0), deployment.cell(1), deployment.cell(2)
    fastmoney = FastMoneyClient(BlockumulusClient(deployment))
    result = run(deployment, fastmoney.faucet(100))
    assert result.ok
    entry = service.ledger.get(result.tx_id)
    honest = next(
        confirmation for confirmation in result.receipt.confirmations
        if confirmation.cell == signer.address
    )
    assert honest.verify()
    _send_confirmation(deployment, relay, honest, entry.envelope)
    assert service.metrics.counter(f"{service.node_name}/confirm_auth_failures") == 1
    _send_confirmation(deployment, signer, honest, entry.envelope)
    assert service.metrics.counter(f"{service.node_name}/confirm_auth_failures") == 1


def test_client_envelopes_relayed_in_another_cells_forward_are_rejected_and_run_nowhere():
    """A forward item is read under the cell that forwards it.

    Cell 2 wraps what cell 0 would forward — client envelopes addressed to
    cell 0 — in a ``TX_FORWARD`` of its own: cell 1 reads them under cell 2,
    their client signatures do not verify, and it confirms them rejected.
    """
    deployment = make_deployment(consortium_size=3, signature_scheme="sim")
    origin, peer, relay = deployment.cells
    client = BlockumulusClient(deployment)
    assert client.service_cell is origin
    envelopes = [
        client.endpoint.sign(
            origin.address, Opcode.TX_SUBMIT,
            {"contract": "fastmoney", "method": "faucet", "args": {"amount": amount}},
        )
        for amount in (1, 2)
    ]
    answered = []
    relay.service._accept_confirmations = (
        lambda _src, _envelope, batch: answered.extend(batch.confirmations)
    )
    relay.endpoint.send(
        peer.node_name, peer.address, Opcode.TX_FORWARD, ForwardBatch.of(envelopes).to_data()
    )
    deployment.run(until=deployment.env.now + deployment.config.forwarding_deadline + 1.0)
    # Each is confirmed under the id of what cell 1 read: the payload
    # addressed to cell 2, which nobody signed.
    read = ForwardBatch.of(envelopes).envelopes(relay.address)
    assert [(item.tx_id, item.status, item.error) for item in answered] == [
        (envelope.payload.hash_hex(), "rejected", "client signature invalid") for envelope in read
    ]
    tx_ids = {envelope.payload.hash_hex() for envelope in envelopes + read}
    assert not any(cell.ledger.contains(tx_id) for cell in deployment.cells for tx_id in tx_ids)
