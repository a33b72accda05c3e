"""Signature schemes and the signed statements' shared signature parse."""

import pytest

from repro.core.receipts import Confirmation, ReceiptError
from repro.messages.evidence import EvidenceError, PartitionEvent
from repro.messages.membership import ExclusionVote, MembershipError, RejoinAck
from repro.messages.opcodes import Opcode
from repro.messages.signer import EcdsaSigner, SimulatedSigner, verify_signature
from repro.messages.xshard import CrossShardError, CrossShardVote, CrossShardVoucher


def test_ecdsa_signer_sign_and_verify():
    signer = EcdsaSigner.from_seed("scheme-test")
    signature = signer.sign(b"message")
    assert len(signature) == 65
    assert verify_signature("ecdsa", signer.address, b"message", signature)
    assert not verify_signature("ecdsa", signer.address, b"other", signature)


def test_ecdsa_wrong_address_rejected():
    signer = EcdsaSigner.from_seed("scheme-a")
    other = EcdsaSigner.from_seed("scheme-b")
    signature = signer.sign(b"m")
    assert not verify_signature("ecdsa", other.address, b"m", signature)


def test_simulated_signer_is_deterministic():
    a = SimulatedSigner("same-seed")
    b = SimulatedSigner("same-seed")
    assert a.address == b.address
    assert a.sign(b"x") == b.sign(b"x")


def test_simulated_signer_verification():
    signer = SimulatedSigner("fast")
    signature = signer.sign(b"payload")
    assert len(signature) == 65
    assert verify_signature("sim", signer.address, b"payload", signature)
    assert not verify_signature("sim", signer.address, b"tampered", signature)


def test_unknown_scheme_rejected():
    signer = SimulatedSigner("x")
    assert not verify_signature("bogus", signer.address, b"m", signer.sign(b"m"))


def test_unregistered_sim_address_rejected():
    signer = EcdsaSigner.from_seed("never-registered-as-sim")
    assert not verify_signature("sim", signer.address, b"m", b"\x00" * 65)


def test_garbage_ecdsa_signature_rejected():
    signer = EcdsaSigner.from_seed("garbage")
    assert not verify_signature("ecdsa", signer.address, b"m", b"\xff" * 65)


def test_an_opcode_prints_as_its_wire_value():
    # Who may send which opcode is declared (and tested) with the route
    # table: tests/core/test_ingress_routes.py.
    assert str(Opcode.TX_SUBMIT) == "tx_submit"


# ----------------------------------------------------------------------
# The six signed statements share one signature parse
# ----------------------------------------------------------------------
PEER = SimulatedSigner("statement-peer").address
FINGERPRINT = "0x" + "22" * 32

#: class -> (its typed parse error, how a signer creates one)
STATEMENTS = {
    Confirmation: (
        ReceiptError,
        lambda signer: Confirmation.create(
            signer, "0x" + "11" * 32, "fastmoney", FINGERPRINT, "executed", 12.5
        ),
    ),
    CrossShardVote: (
        CrossShardError,
        lambda signer: CrossShardVote.create(signer, "0xa1", 0, (0, 1), "prepare", True),
    ),
    CrossShardVoucher: (
        CrossShardError,
        lambda signer: CrossShardVoucher.create(
            signer, "0xa1", 0, 1, "pay@1", "0x" + "55" * 20, 10, 99.0
        ),
    ),
    ExclusionVote: (MembershipError, lambda signer: ExclusionVote.create(signer, PEER, 3, True)),
    RejoinAck: (
        MembershipError,
        lambda signer: RejoinAck.create(signer, PEER, 3, FINGERPRINT, True, admitted_head=7),
    ),
    PartitionEvent: (
        EvidenceError,
        lambda signer: PartitionEvent.create(signer, ["cell-0", "cell-1"], "cut", 4.0),
    ),
}


@pytest.mark.parametrize("statement_class", STATEMENTS, ids=lambda cls: cls.__name__)
def test_statement_signature_without_0x_prefix_keeps_every_byte(statement_class):
    _error, create = STATEMENTS[statement_class]
    statement = create(SimulatedSigner("statement-signer"))
    wire = statement.to_wire()
    assert wire["signature"].startswith("0x")
    wire["signature"] = wire["signature"][2:]
    restored = statement_class.from_wire(wire)
    assert restored.signature == statement.signature
    assert restored == statement and restored.verify()


@pytest.mark.parametrize("signature", ["0x" + "ab" * 64, "0x" + "ab" * 66, "ab" * 64, "0x", 7])
@pytest.mark.parametrize("statement_class", STATEMENTS, ids=lambda cls: cls.__name__)
def test_statement_signature_of_wrong_length_rejected(statement_class, signature):
    error, create = STATEMENTS[statement_class]
    wire = create(SimulatedSigner("statement-signer")).to_wire()
    wire["signature"] = signature
    with pytest.raises(error):
        statement_class.from_wire(wire)
