"""A forward travels unsigned: the link it arrives on names its forwarder.

A ``TX_FORWARD`` carries client transactions, each under its client's
signature and read as a ``TX_SUBMIT`` to the cell that forwards it.  No
signature covers the envelope around them, so a cell takes one only over
the link to the cell it names (``BlockumulusCell._serve_message``).  Each
row sends cell 2 what cell 0 would forward — faucet calls its client
addressed to cell 0 — from where it must not come, and requires the
counter named to tick once, no protocol state to move and nothing to run
anywhere.  A peer that re-wraps what it was forwarded in its own name gets
past ingress, but the items are read as addressed to it, which no client
signed: they are confirmed rejected.
"""

import pytest

from repro.client import BlockumulusClient
from repro.core.ledger import tx_ref
from repro.messages import Envelope, ForwardBatch, Opcode
from tests.conftest import make_deployment


def faucets(deployment, count=2):
    """``count`` faucet calls a client signed for cell 0, which never services them."""
    client = BlockumulusClient(deployment)
    assert client.service_cell is deployment.cell(0)
    return [
        client.endpoint.sign(
            deployment.cell(0).address, Opcode.TX_SUBMIT,
            {"contract": "fastmoney", "method": "faucet", "args": {"amount": amount}},
        )
        for amount in range(1, count + 1)
    ]


def protocol_state(deployment) -> dict:
    """Everything a refused forward must leave exactly as it was."""
    cells = deployment.cells
    return {
        "ledgers": [len(cell.ledger) for cell in cells],
        "fingerprints": [cell.contracts.fingerprints() for cell in cells],
        "excluded": [cell.consensus.excluded_cells() for cell in cells],
        "inflight": [cell.inflight for cell in cells],
    }


def forward(deployment, src_node, sender, envelopes) -> None:
    """``src_node`` sends cell 2 ``envelopes`` in a ``TX_FORWARD`` that names ``sender``."""
    target = deployment.cell(2)
    message = Envelope.unsigned(
        sender.address, sender.scheme, target.address, Opcode.TX_FORWARD,
        ForwardBatch.of(envelopes).to_data(), deployment.env.now,
    )
    deployment.network.send(src_node, target.node_name, message, message.byte_size())
    deployment.run(until=deployment.env.now + deployment.config.forwarding_deadline + 1.0)


def ran_nowhere(deployment, envelopes) -> bool:
    tx_ids = {envelope.payload.hash_hex() for envelope in envelopes}
    return not any(cell.ledger.contains(tx_id) for cell in deployment.cells for tx_id in tx_ids)


def forward_auth_failures(deployment) -> float:
    target = deployment.cell(2)
    return deployment.metrics.counter(f"{target.node_name}/forward_auth_failures")


@pytest.mark.parametrize("named", ["cell 0", "the outsider"])
def test_an_unsigned_forward_from_a_node_outside_the_consortium_is_refused(named):
    deployment = make_deployment(consortium_size=3, signature_scheme="sim")
    envelopes = faucets(deployment)
    outsider = deployment.make_client_signer("hostile-forwards/outsider")
    deployment.network.register("outsider")
    before = protocol_state(deployment)
    forward(deployment, "outsider",
            deployment.cell(0).signer if named == "cell 0" else outsider, envelopes)
    assert forward_auth_failures(deployment) == 1
    assert protocol_state(deployment) == before and ran_nowhere(deployment, envelopes)


def test_a_forward_in_cell_0s_name_over_cell_1s_link_is_refused_at_ingress():
    deployment = make_deployment(consortium_size=3, signature_scheme="sim")
    envelopes = faucets(deployment)
    before = protocol_state(deployment)
    forward(deployment, deployment.cell(1).node_name, deployment.cell(0).signer, envelopes)
    assert forward_auth_failures(deployment) == 1
    assert protocol_state(deployment) == before and ran_nowhere(deployment, envelopes)


def test_a_peer_that_re_wraps_a_forward_gets_nothing_run():
    """Cell 1 passes on what cell 0 forwarded it: in cell 0's name it is refused
    at ingress; in its own, cell 2 reads the items as addressed to cell 1 and
    confirms them rejected to it."""
    deployment = make_deployment(consortium_size=3, signature_scheme="sim")
    relay = deployment.cell(1)
    envelopes = faucets(deployment)
    answered = []
    relay.service._accept_confirmations = (
        lambda _src, _envelope, batch: answered.extend(batch.confirmations)
    )
    before = protocol_state(deployment)
    forward(deployment, relay.node_name, deployment.cell(0).signer, envelopes)
    forward(deployment, relay.node_name, relay.signer, envelopes)
    assert forward_auth_failures(deployment) == 1
    read = ForwardBatch.of(envelopes).envelopes(relay.address)
    assert [(item.tx_id, item.status, item.error) for item in answered] == [
        (tx_ref(envelope.payload.hash_hex()), "rejected", "client signature invalid")
        for envelope in read
    ]
    assert protocol_state(deployment) == before
    assert ran_nowhere(deployment, envelopes + read)
