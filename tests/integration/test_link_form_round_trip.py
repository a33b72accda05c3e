"""Every message of a benchmark drive survives its link form.

A message travels without what its receiver supplies: a cell reads it under
its own address, a requester under the identity that signed the request it
answers — and an unsigned message as sent by the node at the other end of
its link: a requester the cell it asked, a cell the peer whose link it
arrived on.  Here every envelope posted during a smoke ``burst_sim`` and
``xshard_burst`` drive goes through ``link_bytes()`` and back under exactly
those identities, and must come back equal, signed exactly where the route
table says so; the client envelopes it nests come back under the identities
of the envelope around them, a forward item as a ``TX_SUBMIT`` to its
forwarder, equal to what its client signed.
"""

import pytest

from repro.core.receipts import called_contract
from repro.core.routes import travels_signed
from repro.messages.batch import ForwardedTransactions
from repro.messages.endpoint import Endpoint
from repro.messages.envelope import Envelope
from repro.messages.opcodes import Opcode

XSHARD_REQUESTS = (
    Opcode.XSHARD_PREPARE, Opcode.XSHARD_COMMIT, Opcode.XSHARD_ABORT, Opcode.XSHARD_VOUCHER,
)


def _posted(workload_name, monkeypatch):
    """Every ``(source node, destination node, envelope)`` a smoke drive posted, and its cells."""
    from bench.workloads import WORKLOADS

    posted: list[tuple[str, str, Envelope]] = []
    post = Endpoint.post

    def recorded_post(endpoint, dst_node, envelope):
        posted.append((endpoint.node_name, dst_node, envelope))
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
    return posted, cells


@pytest.mark.parametrize("workload_name", ["burst_sim", "xshard_burst"])
def test_every_posted_envelope_round_trips_under_its_receivers_identity(
    workload_name, monkeypatch
):
    posted, cells = _posted(workload_name, monkeypatch)
    requests = {
        envelope.nonce: envelope for _src, _dst, envelope in posted if envelope.nonce is not None
    }
    addresses = set(cells.values())

    # (sender, nonce) -> a client's TX_SUBMIT, posted itself or nested in a
    # cross-shard request; and every forward item, as its receiver reads it.
    submitted: dict = {}
    forwarded: list[Envelope] = []
    unsigned = 0
    for src_node, dst_node, envelope in posted:
        sender = None
        if dst_node in cells:
            supplied = cells[dst_node]
            if envelope.signature is None:
                sender = cells[src_node]  # the peer at the other end of the link
        else:
            request = requests[envelope.payload.reply_to]
            supplied = request.sender
            if envelope.signature is None:
                sender = request.recipient  # the cell that was asked
        assert supplied == envelope.recipient
        read = Envelope.from_link(envelope.link_bytes(), supplied, sender)
        # A client signs what it sends; a cell signs as the route table says.
        signed = envelope.sender not in addresses or travels_signed(envelope.operation)
        assert read == envelope and read.verify() is signed
        assert (read.signature is not None) is signed and (read.nonce is not None) is signed
        unsigned += not signed
        assert read.byte_size() == envelope.byte_size() == len(envelope.link_bytes())
        if read.operation is Opcode.TX_SUBMIT:
            submitted[(read.sender, read.nonce)] = read
        elif read.operation is Opcode.TX_FORWARD:
            forwarded += ForwardedTransactions.from_data(read.data).envelopes(read.sender)
        elif read.operation in XSHARD_REQUESTS and dst_node in cells:
            inner = Envelope.from_link(read.data["transaction"], supplied, read.sender)
            assert inner.verify() and called_contract(inner)
            submitted[(inner.sender, inner.nonce)] = inner
    for item in forwarded:
        assert item.operation is Opcode.TX_SUBMIT and item.verify()
        assert submitted[(item.sender, item.nonce)] == item
    assert len(posted) > 100 and len(forwarded) > 10 and unsigned > 10


def test_a_sharded_clients_nodes_sign_no_sender_nonce_pair_twice(monkeypatch):
    """One identity, one nonce sequence: a client's per-group nodes draw from it,
    so one (sender, nonce) pair signs one message — the paper's η is a unique id."""
    posted, _cells = _posted("xshard_burst", monkeypatch)
    signed = [
        (envelope.sender, envelope.nonce) for _src, _dst, envelope in posted
        if envelope.signature is not None
    ]
    assert len(signed) > 100 and len(set(signed)) == len(signed)
