"""Batch envelope codec: sign/verify round trips and malformed input."""

import pytest

from repro.crypto.keys import PrivateKey
from repro.messages import BatchError, Envelope, ForwardBatch, Opcode
from repro.messages.batch import ForwardedTransactions
from repro.messages.signer import EcdsaSigner


def make_signer(seed: str) -> EcdsaSigner:
    return EcdsaSigner(PrivateKey.from_seed(seed))


def client_envelope(index: int, recipient) -> Envelope:
    signer = make_signer(f"batch-client-{index}")
    return Envelope.create(
        signer=signer,
        recipient=recipient,
        operation=Opcode.TX_SUBMIT,
        data={"contract": "fastmoney", "method": "faucet", "args": {"amount": index + 1}},
        timestamp=float(index),
        nonce=f"0x{index:024x}",
    )


@pytest.fixture
def cell_signer():
    return make_signer("batch-cell")


def test_forward_batch_round_trip_preserves_client_signatures(cell_signer):
    recipient = make_signer("batch-peer").address
    # The clients addressed the cell that forwards their transactions.
    originals = [client_envelope(i, cell_signer.address) for i in range(4)]
    batch = ForwardBatch.of(originals)

    # The outer envelope travels unsigned: the link names the forwarder.
    outer = Envelope.unsigned(
        cell_signer.address, cell_signer.scheme, recipient, Opcode.TX_FORWARD,
        batch.to_data(), 10.0,
    )
    parsed_outer = Envelope.from_link(outer.link_bytes(), recipient, cell_signer.address)
    assert parsed_outer == outer and parsed_outer.signature is None
    assert parsed_outer.operation == Opcode.TX_FORWARD

    parsed_batch = ForwardBatch.from_data(parsed_outer.data)
    assert len(parsed_batch) == 4
    inner = parsed_batch.envelopes(parsed_outer.sender)
    assert inner == ForwardedTransactions.from_data(parsed_outer.data).envelopes(
        parsed_outer.sender
    )
    for original, round_tripped in zip(originals, inner):
        assert round_tripped.verify()
        assert round_tripped == original
        assert round_tripped.payload.hash_hex() == original.payload.hash_hex()


def test_forward_items_leave_out_what_the_receiver_supplies(cell_signer):
    item = client_envelope(0, cell_signer.address)
    link = ForwardBatch.of([item]).transactions[0]
    assert set(link) == {"payload", "signature"}
    # A forward item is a TX_SUBMIT, which its receiver supplies too.
    assert set(link["payload"]) == {"data", "nonce", "sender", "timestamp"}
    (read,) = ForwardedTransactions.from_data({"transactions": [link]}).envelopes(
        cell_signer.address
    )
    assert read == item and read.operation is Opcode.TX_SUBMIT and read.verify()


def test_only_a_tx_submit_is_forwarded_and_an_item_always_reads_as_one(cell_signer):
    """A client envelope of another opcode, carried with its opcode named,
    is still read as a ``TX_SUBMIT``: its signature fails, nothing runs."""
    forwarder = cell_signer.address
    query = Envelope.create(
        signer=make_signer("batch-client-0"), recipient=forwarder,
        operation=Opcode.QUERY_STATE, data={"contract": "fastmoney", "view": "total"},
        timestamp=1.0, nonce="0x" + "ef" * 12,
    )
    with pytest.raises(BatchError, match="only a tx_submit"):
        ForwardBatch.of([client_envelope(0, forwarder), query])
    (read,) = ForwardedTransactions.from_data({"transactions": [query.to_link()]}).envelopes(
        forwarder
    )
    assert read.operation is Opcode.TX_SUBMIT and not read.verify()


def test_a_forward_item_read_under_another_forwarder_fails_verification(cell_signer):
    """A client envelope relayed by a cell it was not addressed to."""
    batch = ForwardBatch.of([client_envelope(0, cell_signer.address)])
    other = make_signer("batch-relay").address
    (relayed,) = batch.envelopes(other)
    assert relayed.recipient == other
    assert not relayed.verify()
    (forwarded,) = batch.envelopes(cell_signer.address)
    assert forwarded.verify()


def test_an_item_tampered_on_the_way_fails_its_clients_signature(cell_signer):
    """Nothing signs the outer envelope: each item stands on its client's signature."""
    forwarder = cell_signer.address
    (link,) = ForwardBatch.of([client_envelope(0, forwarder)]).transactions
    link["payload"]["data"]["args"]["amount"] = 1_000
    (read,) = ForwardedTransactions.from_data({"transactions": [link]}).envelopes(forwarder)
    assert not read.verify()


def test_empty_and_malformed_batches_rejected(cell_signer):
    forwarder = cell_signer.address
    with pytest.raises(BatchError):
        ForwardBatch(transactions=())
    with pytest.raises(BatchError):
        ForwardBatch.from_data({})
    with pytest.raises(BatchError):
        ForwardBatch.from_data({"transactions": []})
    with pytest.raises(BatchError):
        ForwardBatch.from_data({"transactions": ["not a wire object"]})
    with pytest.raises(BatchError):
        ForwardBatch.from_data({"transactions": [{"payload": "garbage"}]}).envelopes(forwarder)
    with pytest.raises(BatchError):
        ForwardedTransactions.from_data({"transactions": [{"payload": "garbage"}]})
    # Only a message whose reader checks what it carries travels unsigned.
    unsigned = client_envelope(0, forwarder).to_link()
    del unsigned["signature"]
    with pytest.raises(BatchError, match="client's signature"):
        ForwardedTransactions.from_data({"transactions": [unsigned]})


def test_a_forward_item_that_names_another_recipient_is_still_read_under_its_forwarder(
    cell_signer,
):
    forwarder = cell_signer.address
    addressed = client_envelope(0, make_signer("batch-peer").address).to_wire()
    for batch in (ForwardBatch, ForwardedTransactions):
        (read,) = batch.from_data({"transactions": [addressed]}).envelopes(forwarder)
        assert read.recipient == forwarder and not read.verify()


def test_inner_envelope_with_bad_signature_hex_raises_batch_error(cell_signer):
    wire = client_envelope(0, cell_signer.address).to_link()
    wire["signature"] = "0xzz"  # not hex: must surface as BatchError, not ValueError
    with pytest.raises(BatchError):
        ForwardBatch.from_data({"transactions": [wire]}).envelopes(cell_signer.address)
    wire["signature"] = 1234  # not even a string
    with pytest.raises(BatchError):
        ForwardBatch.from_data({"transactions": [wire]}).envelopes(cell_signer.address)
