"""Every message of a benchmark drive survives its link form.

A message travels without what its receiver supplies: a cell reads it under
its own address, a requester under the identity that signed the request it
answers.  Here every envelope posted during a smoke ``burst_sim`` and
``xshard_burst`` drive goes through ``link_bytes()`` and back under exactly
that identity, and must come back equal; the client envelopes it nests come
back under the identities of the envelope around them.
"""

import pytest

from repro.core.receipts import called_contract
from repro.messages.batch import ForwardedTransactions
from repro.messages.endpoint import Endpoint
from repro.messages.envelope import Envelope
from repro.messages.opcodes import Opcode

XSHARD_REQUESTS = (
    Opcode.XSHARD_PREPARE, Opcode.XSHARD_COMMIT, Opcode.XSHARD_ABORT, Opcode.XSHARD_VOUCHER,
)


@pytest.mark.parametrize("workload_name", ["burst_sim", "xshard_burst"])
def test_every_posted_envelope_round_trips_under_its_receivers_identity(
    workload_name, monkeypatch
):
    from bench.workloads import WORKLOADS

    posted: list[tuple[str, Envelope]] = []
    post = Endpoint.post

    def recorded_post(endpoint, dst_node, envelope):
        posted.append((dst_node, envelope))
        return post(endpoint, dst_node, envelope)

    monkeypatch.setattr(Endpoint, "post", recorded_post)
    workload = WORKLOADS[workload_name]
    deployment = workload.build(7, True)
    workload.drive(deployment, True)
    groups = getattr(deployment, "groups", None)
    cells = {
        cell.node_name: cell.address
        for each in (groups or [deployment])
        for cell in each.cells
    }
    requesters = {envelope.nonce: envelope.sender for _dst, envelope in posted}

    nested = 0
    for dst_node, envelope in posted:
        if dst_node in cells:
            supplied = cells[dst_node]
        else:
            supplied = requesters[envelope.payload.reply_to]
        assert supplied == envelope.recipient
        read = Envelope.from_link(envelope.link_bytes(), supplied)
        assert read == envelope and read.verify()
        assert read.byte_size() == envelope.byte_size() == len(envelope.link_bytes())
        if read.operation is Opcode.TX_FORWARD:
            items = ForwardedTransactions.from_data(read.data).envelopes(read.sender)
            assert all(item.verify() and item.recipient == read.sender for item in items)
            nested += len(items)
        elif read.operation in XSHARD_REQUESTS and dst_node in cells:
            inner = Envelope.from_link(read.data["transaction"], supplied, read.sender)
            assert inner.verify() and called_contract(inner)
            nested += 1
    assert len(posted) > 100 and nested > 10
