"""Signature schemes and the signed statements' shared signature parse."""

import pytest

from repro.messages.opcodes import Opcode
from repro.messages.signer import EcdsaSigner, SignedStatement, SimulatedSigner, verify_signature
from tests.messages.wire_samples import build


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
# The signed statements share one signature parse
# ----------------------------------------------------------------------
#: One signed sample per statement class: the golden table's (a new
#: statement is here once it has a sample there, which
#: ``tests/messages/test_golden_wire.py`` insists on).
STATEMENTS = build()[0]
by_statement = pytest.mark.parametrize("name", sorted(STATEMENTS))


def test_every_statement_class_has_a_sample():
    from repro.messages import evidence, membership, xshard  # noqa: F401 - define the classes

    declared = {cls.__name__ for cls in SignedStatement.__subclasses__()}
    assert declared == {type(statement).__name__ for statement in STATEMENTS.values()}


@by_statement
def test_statement_signature_without_0x_prefix_keeps_every_byte(name):
    statement = STATEMENTS[name]
    wire = statement.to_wire()
    assert wire["signature"].startswith("0x")
    wire["signature"] = wire["signature"][2:]
    restored = type(statement).from_wire(wire)
    assert restored.signature == statement.signature
    assert restored == type(statement).from_wire(statement.to_wire()) and restored.verify()


@pytest.mark.parametrize("signature", ["0x" + "ab" * 64, "0x" + "ab" * 66, "ab" * 64, "0x", 7])
@by_statement
def test_statement_signature_of_wrong_length_rejected(name, signature):
    statement = STATEMENTS[name]
    wire = statement.to_wire()
    wire["signature"] = signature
    with pytest.raises(type(statement).ERROR):
        type(statement).from_wire(wire)
