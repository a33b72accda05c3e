"""Confirmations and aggregated multi-signature receipts."""

import dataclasses

import pytest

from repro.core.receipts import AggregatedReceipt, Confirmation, ReceiptError
from repro.messages import EcdsaSigner, SimulatedSigner

CELL_A = EcdsaSigner.from_seed("receipt-cell-a")
CELL_B = EcdsaSigner.from_seed("receipt-cell-b")
TX_ID = "0x" + "11" * 32
FP = "0x" + "22" * 32


def make_confirmation(
    signer=CELL_A, status="executed", fingerprint=FP, tx_id=TX_ID, contract="fastmoney",
    timestamp=3.0, error=None,
):
    return Confirmation.create(
        signer, tx_id=tx_id, contract=contract, fingerprint_hex=fingerprint, status=status,
        timestamp=timestamp, error=error,
    )


def make_receipt(confirmations):
    return AggregatedReceipt.of(
        confirmations, tx_id=TX_ID, contract="fastmoney", fingerprint_hex=FP,
        method="transfer", result={"amount": 5}, service_cell=CELL_A.address, cycle=1,
        submitted_at=1.0, completed_at=3.5,
    )


def test_confirmation_signature_verifies():
    confirmation = make_confirmation()
    assert confirmation.verify()


def test_confirmation_wire_roundtrip():
    confirmation = make_confirmation()
    restored = Confirmation.from_wire(confirmation.to_wire())
    assert restored.verify()
    assert restored == confirmation


def test_tampered_confirmation_fails():
    confirmation = make_confirmation()
    tampered = dataclasses.replace(confirmation, fingerprint_hex="0x" + "33" * 32)
    assert not tampered.verify()


def test_simulated_scheme_confirmation():
    signer = SimulatedSigner("receipt-sim-cell")
    confirmation = Confirmation.create(
        signer, tx_id=TX_ID, contract="cas", fingerprint_hex=FP, status="executed", timestamp=1.0
    )
    assert confirmation.scheme == "sim" and confirmation.verify()


def test_malformed_confirmation_wire_rejected():
    with pytest.raises(ReceiptError):
        Confirmation.from_wire({"cell": "0x00"})


def test_receipt_verifies_with_matching_confirmations():
    receipt = make_receipt([make_confirmation(CELL_A), make_confirmation(CELL_B)])
    assert receipt.verify()
    assert receipt.verify(expected_cells=[CELL_A.address, CELL_B.address])
    assert receipt.latency == pytest.approx(2.5)
    assert set(receipt.cells()) == {CELL_A.address.hex(), CELL_B.address.hex()}


def test_receipt_rejects_missing_expected_cell():
    receipt = make_receipt([make_confirmation(CELL_A)])
    assert not receipt.verify(expected_cells=[CELL_A.address, CELL_B.address])


def test_receipt_rejects_mismatched_fingerprint():
    bad = make_confirmation(CELL_B, fingerprint="0x" + "99" * 32)
    with pytest.raises(ReceiptError):
        make_receipt([make_confirmation(CELL_A), bad])


def test_receipt_rejects_rejected_confirmation():
    with pytest.raises(ReceiptError):
        make_receipt([make_confirmation(CELL_A, status="rejected")])


@pytest.mark.parametrize("statement", [
    {"tx_id": "0x" + "33" * 32}, {"contract": "cas"}, {"error": "late"},
], ids=["tx_id", "contract", "error"])
def test_receipt_refuses_a_cosigner_of_another_statement(statement):
    with pytest.raises(ReceiptError):
        make_receipt([make_confirmation(CELL_A), make_confirmation(CELL_B, **statement)])


def test_receipt_states_an_executed_transaction():
    wire_form = make_receipt([make_confirmation(CELL_A)]).to_wire()
    with pytest.raises(ReceiptError):
        AggregatedReceipt.from_wire(dict(wire_form, status="rejected"))


def test_receipt_rebuilds_each_cosigners_statement():
    confirmations = [make_confirmation(CELL_A), make_confirmation(CELL_B, timestamp=3.25)]
    receipt = make_receipt(confirmations)
    assert receipt.confirmations == tuple(confirmations)
    assert [c.body() for c in receipt.confirmations] == [c.body() for c in confirmations]
    # The statement travels once; a co-signer is only what differs.
    cosigners = receipt.to_wire()["cosigners"]
    assert [sorted(cosigner) for cosigner in cosigners] == [
        ["cell", "scheme", "signature", "timestamp"]
    ] * 2


def test_empty_receipt_does_not_verify():
    assert not make_receipt([]).verify()


def test_receipt_wire_roundtrip_and_size():
    receipt = make_receipt([make_confirmation(CELL_A), make_confirmation(CELL_B)])
    restored = AggregatedReceipt.from_wire(receipt.to_wire())
    assert restored.verify()
    assert restored.tx_id == receipt.tx_id
    assert receipt.byte_size() > 500


def test_malformed_receipt_wire_rejected():
    with pytest.raises(ReceiptError):
        AggregatedReceipt.from_wire({"tx_id": TX_ID})
