"""Signature schemes and the signed statements' shared signature parse."""

import dataclasses

import pytest

from repro.crypto.ecdsa import Signature
from repro.encoding import canonical_json
from repro.messages import signer as signer_module
from repro.messages import wire
from repro.messages.opcodes import Opcode
from repro.messages.signer import (
    EcdsaSigner,
    SignedStatement,
    SimulatedSigner,
    register_consortium_keys,
    verify_signature,
)
from tests.conftest import make_deployment
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


# -- registered consortium keys: checked by key, never a different verdict -------


def _verdicts(signer, other, message=b"consortium message"):
    """Verdicts on one honest signature and on each way to spoil it."""
    signature = signer.sign(message)
    parsed = Signature.from_bytes(signature)
    wrong_v = Signature(r=parsed.r, s=parsed.s, v=parsed.v ^ 1).to_bytes()
    cases = [
        (signer.address, message, signature),
        (signer.address, message + b"!", signature),
        (signer.address, message, other.sign(message)),
        (signer.address, message, wrong_v),
        (signer.address, message, signature[:-1] + b"\x07"),
        (other.address, message, signature),
    ]
    verdicts = []
    for case in cases:
        signer_module._VERIFIED_ECDSA.clear()
        verdicts.append(verify_signature("ecdsa", *case))
    return verdicts


def test_a_registered_key_is_checked_by_key_with_the_verdicts_of_recovery(monkeypatch):
    signer, other = EcdsaSigner.from_seed("consortium-a"), EcdsaSigner.from_seed("consortium-b")
    monkeypatch.setattr(signer_module, "_CONSORTIUM_KEYS", signer_module.BoundedMemo(4))
    recovered = _verdicts(signer, other)
    assert recovered == [True, False, False, False, False, False]
    register_consortium_keys([signer, other])

    def no_recovery(*args):
        pytest.fail("a registered key was recovered")

    monkeypatch.setattr(signer_module, "recover_address", no_recovery)
    assert _verdicts(signer, other) == recovered


def test_registration_keeps_the_first_entry_skips_sim_and_clear_registry_drops_it(monkeypatch):
    keys = signer_module.BoundedMemo(4)
    monkeypatch.setattr(signer_module, "_CONSORTIUM_KEYS", keys)
    monkeypatch.setattr(SimulatedSigner, "_registry", {})
    ecdsa, sim = EcdsaSigner.from_seed("consortium-c"), SimulatedSigner("consortium-c")
    register_consortium_keys([ecdsa, sim])
    assert list(keys) == [ecdsa.address.value]
    first = keys.get(ecdsa.address.value)
    assert first.point == ecdsa.key.public_key.point
    register_consortium_keys([EcdsaSigner.from_seed("consortium-c")])
    assert keys.get(ecdsa.address.value) is first
    SimulatedSigner.clear_registry()
    assert len(keys) == 0


def test_a_deployment_registers_its_cells_standbys_included_and_no_client(monkeypatch):
    keys = signer_module.BoundedMemo(64)
    monkeypatch.setattr(signer_module, "_CONSORTIUM_KEYS", keys)
    deployment = make_deployment(standby_cells=1)
    client = deployment.make_client_signer("consortium-client")
    assert set(keys) == {cell.address.value for cell in deployment.cells}
    assert len(deployment.cells) == 3 and client.address.value not in set(keys)


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
    from repro.messages import membership, xshard  # noqa: F401 - define the classes

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


# ----------------------------------------------------------------------
# The signed bytes are written from the field declarations: same bytes as
# the generic encoder gave the dict the previous code built
# ----------------------------------------------------------------------
def _reference_body(statement):
    """``body()`` as it was computed before the per-class plan: the signed
    fields under their wire keys, plus ``kind``, through the generic encoder."""
    fields = {}
    for name, key, kind, _required, signed, omit_none in wire.fields(type(statement)):
        if signed:
            value = getattr(statement, name)
            if value is not None or not omit_none:
                fields[key] = value if kind.encode is None else kind.encode(value)
    if statement.KIND is not None:
        fields["kind"] = statement.KIND
    return canonical_json.dump_bytes(fields)


def _hard_statements():
    """One instance per statement class with the values an escaper can get wrong."""
    from repro.core.receipts import Confirmation
    from repro.messages.membership import ExclusionVote, RejoinAck
    from repro.messages.xshard import CrossShardVote, CrossShardVoucher

    signer = SimulatedSigner("hard-signer")
    peer = SimulatedSigner("hard-peer").address
    nasty = 'quote " backslash \\ tab \t bell \x07 del \x7f é ж 漢 \U0001f600 </script>'
    return [
        # An integer-valued float timestamp, and every escape in one error text.
        Confirmation.create(signer, "0x" + "ab" * 32, "fastmoney", "0x" + "cd" * 32,
                            "rejected", 3.0, error=nasty),
        Confirmation.create(signer, nasty, "", "0x", "executed", 1e-06),  # error: None
        Confirmation.create(signer, "0x1", "c", "0x2", "executed", 1234567.8901234567),
        Confirmation.create(signer, "0x1", "c", "0x2", "executed", -0.0),
        Confirmation.create(signer, "0x1", "c", "0x2", "executed", 7),  # an int for seconds
        ExclusionVote.create(signer, peer, -3, False),
        ExclusionVote.create(signer, peer, 2**70, True),
        RejoinAck.create(signer, peer, 0, nasty, True, admitted_head=7),
        RejoinAck.create(signer, peer, 4, "0x" + "ee" * 32, False),
        CrossShardVote.create(signer, nasty, 0, (0, 1, 5), "prepare", True),
        CrossShardVoucher.create(signer, "0xa1", 0, 1, "pay@1", nasty, 10, 99.123456789),
        CrossShardVoucher.create(signer, "0xa1", 1, 0, "pay@1", "holder", 0, 5),
    ]


def test_the_hard_samples_cover_every_statement_class():
    assert {type(s) for s in _hard_statements()} == {type(s) for s in STATEMENTS.values()}


@pytest.mark.parametrize(
    "statement", list(STATEMENTS.values()) + _hard_statements(),
    ids=lambda statement: type(statement).__name__,
)
def test_body_equals_the_generic_encoding_of_the_signed_fields(statement):
    assert statement.body() == _reference_body(statement)
    # Not only the bytes the signer kept: a copy encodes afresh, to the same.
    copy = dataclasses.replace(statement)
    assert copy._body is None and copy.body() == _reference_body(statement)
    assert copy.verify()
    on_the_wire = canonical_json.loads(canonical_json.dumps(statement.to_wire()))
    parsed = type(statement).from_wire(on_the_wire)
    assert parsed.body() == statement.body()


def test_a_value_of_another_type_takes_the_generic_encoder():
    """A fast path is for the exact type only; the rest is the encoder's
    business, its bytes and its refusals included."""
    from repro.core.receipts import Confirmation

    class Text(str):
        pass

    good = STATEMENTS["Confirmation"]
    for changes, expected in [
        ({"tx_id": Text("0xsub")}, b'"tx_id":"0xsub"'),          # a str subclass
        ({"timestamp": True}, b'"timestamp":1.0'),               # bool is not float
        ({"error": 5}, b'"error":5'),                            # not text at all
        ({"contract": ["a", {"b": None}]}, b'"contract":["a",{"b":null}]'),
    ]:
        odd = dataclasses.replace(good, **changes)
        assert odd.body() == _reference_body(odd) and expected in odd.body()
    vote = dataclasses.replace(STATEMENTS["ExclusionVote"], cycle=True)
    assert vote.body() == _reference_body(vote) and b'"cycle":true' in vote.body()
    for refused in (
        {"timestamp": float("nan")}, {"timestamp": float("inf")},
        {"contract": {1: "non-string key"}}, {"contract": object()},
    ):
        odd = dataclasses.replace(good, **refused)
        with pytest.raises(canonical_json.CanonicalJSONError):
            odd.body()
        with pytest.raises(canonical_json.CanonicalJSONError):
            _reference_body(odd)
    assert Confirmation.from_wire(good.to_wire()).body() == good.body()
