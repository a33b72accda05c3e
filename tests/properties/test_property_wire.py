"""Property tests generated from the wire-field declarations (hypothesis).

Every class that declares its fields through :mod:`repro.messages.wire` is
found by walking the declarations — the route table's bodies, the reply
table's, the signed statements, and whatever they nest — so a new body or a
new field is covered the moment it is declared:

(a) an instance generated from the declared kinds round-trips, and a signed
    one still verifies;
(b) arbitrary JSON yields an instance or *that class's* typed error, never
    another exception;
(c) a valid wire form with one field replaced by arbitrary JSON, if
    accepted, re-encodes to exactly what was sent: nothing is coerced.
    (Hex spelling is the one leniency: ``0x`` is optional and case is free,
    which random JSON never produces.)
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.receipts import (
    AggregatedReceipt,
    CompactReceipt,
    Confirmation,
    ConfirmationBatch,
    CoSigner,
    LinkConfirmation,
    called_contract,
    executed_fingerprint_hex,
)
from repro.core.replies import VoucherReply
from repro.core.routes import REPLIES, ROUTES
from repro.core.snapshot import DataSnapshot, SnapshotError
from repro.crypto.keys import Address
from repro.encoding import canonical_json
from repro.messages import EcdsaSigner, Envelope, Opcode, SimulatedSigner, wire
from repro.messages.batch import ForwardBatch, ForwardedTransactions
from repro.messages.envelope import EnvelopeError, LinkEnvelope
from repro.messages.membership import MembershipUpdate, ReplayEntry
from repro.messages.payload import Payload, PayloadError
from repro.messages.requests import LedgerRequest, StateQuery, TransactionCall
from repro.messages.signer import SignedStatement
from repro.messages.xshard import (
    PHASES,
    VOUCHER_PHASES,
    CompactVoucher,
    CrossShardDecision,
    CrossShardPrepare,
    CrossShardVote,
    CrossShardVoucher,
    CrossShardVoucherTransfer,
    voucher_terms,
)

SIGNER = SimulatedSigner("property-wire-signer")

#: Parsers that stay written by hand, each for a stated reason; everything
#: else a route or a statement uses must declare its fields.
HAND_WRITTEN = {
    # The one (contract, verb, args) rule is shared with the executor, and
    # its refusal texts are replies clients read (``named_call``).
    TransactionCall, StateQuery,
}
#: Hand-written for PR 13's encode-once splice (envelopes) and for the
#: ``include_state`` / ``cell_id`` parameters (snapshots): strict all the
#: same, so property (b) holds for them too.  A declared body nests both.
NESTED_BY_HAND = {Envelope, DataSnapshot}
HAND_WRITTEN_PARSERS = [
    (Envelope.from_wire, EnvelopeError),
    (Payload.from_dict, PayloadError),
    (DataSnapshot.from_wire, SnapshotError),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def declared_bodies() -> list[type]:
    """Every class with declared wire fields, reached from the declarations."""
    found: dict[str, type] = {}

    def visit(cls) -> None:
        if cls in HAND_WRITTEN or cls in NESTED_BY_HAND or cls.__name__ in found:
            return
        assert issubclass(cls, wire.Body) and wire.fields(cls), (
            f"{cls.__name__} neither declares wire fields nor is a listed exception"
        )
        found[cls.__name__] = cls
        for item in wire.fields(cls):
            kind = item.kind
            while kind.shape and kind.shape != "nested":
                kind = kind.of
            if kind.shape == "nested":
                visit(kind.of)

    for route in ROUTES.values():
        if route.body is not None:
            visit(route.body)
    for reply in REPLIES.values():
        visit(reply)
    for statement in _subclasses(SignedStatement):
        visit(statement)
    # Bodies no route parses on a cell: receipts that clients and auditors
    # read, and the sending side of a forward batch.
    for body in _subclasses(wire.Body):
        if body is not SignedStatement:
            visit(body)
    return [found[name] for name in sorted(found)]


BODIES = declared_bodies()
by_name = pytest.mark.parametrize("body", BODIES, ids=lambda cls: cls.__name__)


def test_every_route_body_and_statement_is_declared_or_a_listed_exception():
    names = {cls.__name__ for cls in BODIES}
    for opcode, route in ROUTES.items():
        if route.body is not None and route.body not in HAND_WRITTEN:
            assert route.body.__name__ in names, opcode
    assert {cls.__name__ for cls in _subclasses(SignedStatement)} <= names
    # What a cell answers with is declared on the codec, without exception.
    assert {reply.__name__ for reply in REPLIES.values()} <= names
    # The golden table and the ingress matrix lean on the same discovery.
    assert {"Confirmation", "SyncEntry", "EntrySummary", "AggregatedReceipt"} <= names


# ----------------------------------------------------------------------
# Strategies, from the declared kinds
# ----------------------------------------------------------------------
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**12, 10**12)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
#: What a hostile peer can put on a socket: JSON text also spells these.
hostile_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
objects = st.dictionaries(st.text(max_size=6), json_values, max_size=3)
ids = st.text(min_size=1, max_size=8)
groups = st.lists(st.integers(0, 7), min_size=2, max_size=4, unique=True).map(tuple)

ATOMS = {
    "text": st.text(max_size=12),
    "integer": st.integers(-10**12, 10**12),
    "non-negative integer": st.integers(0, 10**9),
    "flag": st.booleans(),
    "number": st.integers(-10**9, 10**9) | st.floats(allow_nan=False, allow_infinity=False),
    "seconds": st.integers(-10**6, 10**12).map(lambda micros: round(micros / 1_000_000, 6)),
    "address": st.binary(min_size=20, max_size=20).map(Address),
    "base64url signature": st.binary(min_size=65, max_size=65),
    "hex bytes": st.binary(max_size=40),
    "object": objects,
    "any": json_values,
}


def envelopes():
    return st.builds(
        lambda amount, nonce: Envelope.create(
            signer=SIGNER, recipient=SIGNER.address, operation=Opcode.TX_SUBMIT,
            data={"contract": "pay", "method": "faucet", "args": {"amount": amount}},
            timestamp=1.5, nonce=nonce,
        ),
        st.integers(0, 100), ids,
    )


def snapshots():
    digests = st.binary(min_size=32, max_size=32)
    return st.builds(
        lambda names, cycle, taken_at, digest, state: DataSnapshot(
            cycle=cycle, taken_at=taken_at, cell_id="cell-0",
            contract_fingerprints=dict.fromkeys(names, digest),
            excluded_contracts=tuple(names[:1]), fingerprint=digest,
            contract_types=dict.fromkeys(names, "fastmoney"),
            state_export=dict.fromkeys(names, state), first_sequence=0, last_sequence=cycle,
        ),
        st.lists(ids, max_size=3, unique=True).map(sorted), st.integers(0, 10**6),
        ATOMS["number"], digests, objects,
    )


def values(kind: wire.Kind):
    """In-memory values of a declared kind."""
    if kind.shape == "optional":
        return st.none() | values(kind.of)
    if kind.shape == "list":
        return st.lists(values(kind.of), max_size=3).map(tuple)
    if kind.shape == "nested":
        by_hand = {Envelope: envelopes, DataSnapshot: snapshots}.get(kind.of)
        return by_hand() if by_hand is not None else instances(kind.of)
    return ATOMS[kind.name]


def _participant(_body, kwargs, draw) -> None:
    kwargs["xtx"] = draw(ids)
    kwargs["participants"] = draw(groups)
    kwargs["group"] = draw(st.sampled_from(kwargs["participants"]))


def _decision(body, kwargs, draw) -> None:
    _participant(body, kwargs, draw)
    kwargs["decision"] = draw(st.sampled_from(["commit", "abort"]))


def _voucher(_body, kwargs, draw) -> None:
    kwargs["xtx"] = draw(ids)
    kwargs["source_group"], kwargs["target_group"] = draw(groups)[:2]


def _transfer(_body, kwargs, draw) -> None:
    kwargs["phase"] = draw(st.sampled_from(VOUCHER_PHASES))
    if kwargs["phase"] == "mint":
        kwargs.update(target_group=draw(st.integers(0, 7)), target_contract=draw(ids))
    else:
        kwargs["voucher"] = draw(instances(CompactVoucher))


def _voucher_reply(_body, kwargs, draw) -> None:
    kwargs["phase"] = draw(st.sampled_from(["minted", "redeemed"]))
    if kwargs["phase"] == "minted":
        kwargs["signature"] = draw(values(wire.signature))
    else:
        kwargs["duplicate"] = draw(st.sampled_from([True, None]))


def _at_least_one(name):
    def rule(body, kwargs, draw) -> None:
        kind = next(item.kind for item in wire.fields(body) if item.name == name)
        if kind.shape == "list" and not kwargs[name]:
            kwargs[name] = (draw(values(kind.of)),)
    return rule


def _membership_update(body, kwargs, draw) -> None:
    kwargs["action"] = draw(st.sampled_from(["exclude", "readmit"]))
    _at_least_one("votes" if kwargs["action"] == "exclude" else "acks")(body, kwargs, draw)


def _replayed(_body, kwargs, draw) -> None:
    """A replayed entry carries its envelope (and may name its recipient) or a held position."""
    kwargs.update(
        fingerprint=draw(st.none() | values(wire.digest)),
        contingency=draw(st.sampled_from([True, None])),
    )
    if draw(st.booleans()):
        kwargs.update(envelope=draw(objects), to=draw(st.none() | values(wire.natural)))
    else:
        kwargs["held"] = draw(values(wire.natural))


#: What ``__post_init__`` demands across fields and a random draw would
#: almost never meet: the rules, not the fields, are listed here.
RULES = {
    CrossShardPrepare: _participant,
    CrossShardDecision: _decision,
    CrossShardVote: lambda _body, kwargs, draw: kwargs.update(
        phase=draw(st.sampled_from(PHASES))
    ),
    CrossShardVoucher: _voucher,
    CrossShardVoucherTransfer: _transfer,
    VoucherReply: _voucher_reply,
    MembershipUpdate: _membership_update,
    ReplayEntry: _replayed,
    LedgerRequest: lambda _body, kwargs, draw: kwargs.update(
        last_cycle=kwargs["first_cycle"] + draw(st.integers(0, 5))
    ),
    ConfirmationBatch: _at_least_one("confirmations"),
    # A co-signer goes unnamed only inside a compact receipt's unnamed list.
    CoSigner: lambda _body, kwargs, draw: kwargs.update(cell=draw(values(wire.address))),
    AggregatedReceipt: lambda _body, kwargs, _draw: kwargs.update(status="executed"),
    ForwardBatch: _at_least_one("transactions"),
    ForwardedTransactions: _at_least_one("transactions"),
    # A nested envelope is a client's, signed; only a top-level one may not be.
    LinkEnvelope: lambda _body, kwargs, draw: kwargs.update(
        signature=draw(values(wire.signature))
    ),
}


@st.composite
def instances(draw, body):
    """A valid instance of a declared body; a statement is properly signed."""
    kwargs = {
        item.name: draw(values(item.kind))
        for item in wire.fields(body)
        if not item.omit_none  # absent unless a rule below asks for it
    }
    for cls in body.__mro__:
        if cls in RULES:
            RULES[cls](body, kwargs, draw)
            break
    if issubclass(body, SignedStatement):
        for name in (body.SIGNER, "signature", "scheme"):
            del kwargs[name]
        return body.create(SIGNER, **kwargs)
    return body(**kwargs)


def as_json(value) -> str:
    """Text, so that ``5`` and ``5.0`` (equal in Python) are told apart."""
    return json.dumps(value, sort_keys=True)


# ----------------------------------------------------------------------
# (a) round trip
# ----------------------------------------------------------------------
@by_name
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_generated_instance_round_trips(body, data):
    instance = data.draw(instances(body))
    assert body.from_wire(instance.to_wire()) == instance
    assert body.from_data(instance.to_data()) == instance
    if isinstance(instance, SignedStatement):
        assert instance.verify() and body.from_wire(instance.to_wire()).verify()


# ----------------------------------------------------------------------
# (b) arbitrary JSON: an instance or the family's error
# ----------------------------------------------------------------------
@by_name
@settings(max_examples=40, deadline=None)
@given(junk=hostile_json)
def test_arbitrary_json_is_an_instance_or_the_typed_error(body, junk):
    for parse in (body.from_wire, body.from_data):
        try:
            parse(junk)
        except body.ERROR:
            pass


@pytest.mark.parametrize("opcode", sorted(ROUTES, key=str), ids=str)
@settings(max_examples=25, deadline=None)
@given(junk=st.dictionaries(st.text(max_size=6), hostile_json, max_size=3))
def test_any_data_field_is_a_body_or_a_value_error_on_every_route(opcode, junk):
    # What the ingress stage relies on, hand-written parsers included.
    body = ROUTES[opcode].body
    if body is not None:
        try:
            body.from_data(junk)
        except ValueError:
            pass


@pytest.mark.parametrize(
    "parse, error", HAND_WRITTEN_PARSERS, ids=["Envelope", "Payload", "DataSnapshot"]
)
@settings(max_examples=60, deadline=None)
@given(junk=hostile_json)
def test_the_hand_written_parsers_refuse_arbitrary_json_with_their_own_error(parse, error, junk):
    try:
        parse(junk)
    except error:
        pass


# ----------------------------------------------------------------------
# (c) one field replaced: refused, or taken exactly as sent
# ----------------------------------------------------------------------
@by_name
@settings(max_examples=40, deadline=None)
@given(data=st.data(), junk=hostile_json)
def test_a_replaced_field_is_refused_or_taken_exactly_as_sent(body, data, junk):
    sent = data.draw(instances(body)).to_wire()
    item = data.draw(st.sampled_from(wire.fields(body)))
    sent[item.key] = junk
    try:
        parsed = body.from_wire(sent)
    except body.ERROR:
        return
    assert as_json(parsed.to_wire()) == as_json(sent)
    if isinstance(parsed, SignedStatement):
        assert parsed.verify() in (True, False)  # a wrong value fails the check, not the cell


@settings(max_examples=60, deadline=None)
@given(data=st.data(), junk=json_values)  # non-finite numbers inside D: ROADMAP, envelopes over a socket
def test_an_envelope_with_one_replaced_field_is_refused_or_verifiable(data, junk):
    sent = data.draw(envelopes()).to_wire()
    key = data.draw(st.sampled_from(["sender", "recipient", "operation", "nonce", "reply_to",
                                     "timestamp", "data", "signature", "scheme"]))
    (sent if key in sent else sent["payload"])[key] = junk
    try:
        parsed = Envelope.from_wire(sent)
    except EnvelopeError:
        return
    assert parsed.verify() in (True, False)
    assert parsed.byte_size() > 0


#: JSON text a hostile peer can spell and no encoder of ours writes: the
#: non-finite constants (``json.dumps`` spells them), an overflowing float,
#: nesting at and far beyond the documented depth.
hostile_fragments = hostile_json.map(json.dumps) | st.sampled_from(
    ["1e999", "-1e999", "[" * 70 + "]" * 70, "[" * 5_000 + "]" * 5_000, "[" * 5_000]
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_arbitrary_bytes_are_an_envelope_or_refused_and_an_accepted_one_can_verify(data):
    good = canonical_json.dump_bytes(data.draw(envelopes()).to_wire())
    assert b'"amount":' in good
    raw = data.draw(
        st.binary(max_size=64)
        | hostile_fragments.map(
            lambda text: good.replace(b'"amount":', b'"amount":' + text.encode() + b',"was":')
        )
        | st.tuples(st.integers(0, len(good)), st.binary(max_size=4)).map(
            lambda cut: good[: cut[0]] + cut[1] + good[cut[0]:]
        )
    )
    try:
        parsed = Envelope.from_wire(raw)
    except EnvelopeError:
        return
    # What was accepted off the socket never raises later, in a cell.
    assert parsed.verify() in (True, False)
    assert parsed.byte_size() > 0


# ----------------------------------------------------------------------
# The link form: an envelope minus what its receiver supplies
# ----------------------------------------------------------------------
ECDSA_SIGNER = EcdsaSigner.from_seed("property-wire-ecdsa")
addresses = st.binary(min_size=20, max_size=20).map(Address)


@st.composite
def addressed_envelopes(draw, operations=tuple(Opcode)):
    return Envelope.create(
        signer=draw(st.sampled_from([SIGNER, ECDSA_SIGNER])), recipient=draw(addresses),
        operation=draw(st.sampled_from(list(operations))), data=draw(objects),
        timestamp=draw(ATOMS["seconds"]), nonce=draw(ids.filter(bool)),
        reply_to=draw(st.none() | st.text(max_size=12)),
    )


@settings(max_examples=60, deadline=None)
@given(envelope=addressed_envelopes(), other=addresses)
def test_the_link_form_round_trips_under_its_recipient_and_verifies_only_there(envelope, other):
    link = envelope.link_bytes()
    assert envelope.byte_size() == len(link)
    assert link == canonical_json.dump_bytes(envelope.to_link())
    assert envelope.recipient.hex().encode() not in link
    assert b'"reply_to":null' not in link and b'"scheme":"ecdsa"' not in link
    restored = Envelope.from_link(link, envelope.recipient)
    assert restored == envelope and restored.verify()
    assert restored.payload.canonical_bytes() == envelope.payload.canonical_bytes()
    if other != envelope.recipient:
        assert not Envelope.from_link(link, other).verify()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_arbitrary_link_bytes_are_an_envelope_or_refused_and_an_accepted_one_can_verify(data):
    good = data.draw(envelopes()).link_bytes()
    raw = data.draw(
        st.binary(max_size=64)
        | hostile_fragments.map(
            lambda text: good.replace(b'"amount":', b'"amount":' + text.encode() + b',"was":')
        )
        | st.tuples(st.integers(0, len(good)), st.binary(max_size=4)).map(
            lambda cut: good[: cut[0]] + cut[1] + good[cut[0]:]
        )
    )
    try:
        parsed = Envelope.from_link(raw, SIGNER.address)
    except EnvelopeError:
        return
    assert parsed.verify() in (True, False)
    assert parsed.byte_size() > 0


@settings(max_examples=40, deadline=None)
@given(data=st.data(), other=addresses)
def test_a_nested_envelope_rebuilt_under_the_wrong_outer_identity_fails(data, other):
    """A forward item under another forwarder or as another opcode than
    ``TX_SUBMIT``, an xshard inner transaction under another coordinator or
    gateway."""
    inner = data.draw(addressed_envelopes(operations=[Opcode.TX_SUBMIT]))
    forwarder = inner.recipient
    (forwarded,) = ForwardedTransactions.from_data(
        ForwardBatch.of([inner]).to_data()
    ).envelopes(forwarder)
    assert forwarded == inner and forwarded.verify()
    another = data.draw(addressed_envelopes())
    (read,) = ForwardedTransactions.from_data(
        {"transactions": [another.to_link()]}
    ).envelopes(another.recipient)
    assert read.operation is Opcode.TX_SUBMIT
    assert read.verify() is (another.operation is Opcode.TX_SUBMIT)
    nested = inner.to_link(with_sender=False)
    assert Envelope.from_link(nested, inner.recipient, inner.sender).verify()
    if other not in (inner.recipient, inner.sender):
        (relayed,) = ForwardBatch.of([inner]).envelopes(other)
        assert not relayed.verify()
        assert not Envelope.from_link(nested, other, inner.sender).verify()
        assert not Envelope.from_link(nested, inner.recipient, other).verify()


# ----------------------------------------------------------------------
# Receipts: one statement, many co-signers
# ----------------------------------------------------------------------
#: Three cells per signature scheme, to co-sign generated receipts.
COSIGNERS = {
    "sim": [SimulatedSigner(f"property-receipt-cell-{index}") for index in range(3)],
    "ecdsa": [EcdsaSigner.from_seed(f"property-receipt-cell-{index}") for index in range(3)],
}
fingerprints = st.binary(min_size=32, max_size=32).map(lambda digest: "0x" + digest.hex())


def cosigned(confirmations, **fields):
    """The receipt ``confirmations`` co-sign, the first by its service cell."""
    return AggregatedReceipt(
        **fields, service_cell=confirmations[0].cell, status="executed",
        cosigners=tuple(
            CoSigner(confirmation.cell, confirmation.timestamp, confirmation.signature,
                     confirmation.scheme)
            for confirmation in confirmations
        ),
    )


@st.composite
def receipts(draw, scheme):
    """A receipt co-signed by one to three cells, each at its own moment."""
    cells = draw(
        st.lists(st.sampled_from(COSIGNERS[scheme]), min_size=1, max_size=3, unique_by=id)
    )
    tx_id, contract, method, result = draw(ids), draw(ids), draw(ids), draw(json_values)
    # The co-signers sign the fingerprint the call and its result give.
    fingerprint = executed_fingerprint_hex(tx_id, contract, method, result)
    statement = dict(tx_id=tx_id, contract=contract, fingerprint_hex=fingerprint)
    confirmations = [
        Confirmation.create(cell, status="executed", timestamp=draw(ATOMS["seconds"]), **statement)
        for cell in cells
    ]
    return cosigned(
        confirmations, **statement, method=method, result=result,
        cycle=draw(st.integers(0, 10**6)), submitted_at=draw(ATOMS["seconds"]),
        completed_at=draw(ATOMS["seconds"]),
    )


def _sent(receipt):
    """The receipt's wire form as a peer reads it off the socket."""
    return json.loads(as_json(receipt.to_wire()))


schemes = pytest.mark.parametrize("scheme", sorted(COSIGNERS))


@schemes
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_compact_receipt_round_trips_and_still_verifies(scheme, data):
    receipt = data.draw(receipts(scheme))
    parsed = AggregatedReceipt.from_wire(_sent(receipt))
    assert parsed == receipt
    assert parsed.confirmations == receipt.confirmations
    assert parsed.verify(expected_cells=[cosigner.cell for cosigner in receipt.cosigners])


@schemes
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_receipt_stating_another_transaction_verifies_for_no_cosigner(scheme, data):
    receipt = data.draw(receipts(scheme))
    sent = _sent(receipt)
    key = data.draw(st.sampled_from(["tx_id", "contract", "fingerprint"]))
    sent[key] = data.draw((fingerprints if key == "fingerprint" else ids).filter(
        lambda value: value != sent[key]
    ))
    assert not AggregatedReceipt.from_wire(sent).verify()


@schemes
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_receipt_with_one_cosigners_moment_changed_does_not_verify(scheme, data):
    receipt = data.draw(receipts(scheme))
    sent = _sent(receipt)
    cosigner = data.draw(st.sampled_from(sent["cosigners"]))
    moment = cosigner["timestamp"]
    cosigner["timestamp"] = round(moment + data.draw(st.integers(1, 10**6)) / 1_000_000, 6)
    assert cosigner["timestamp"] != moment
    assert not AggregatedReceipt.from_wire(sent).verify()


# ----------------------------------------------------------------------
# The cell↔cell link: a confirmation without what its receiver holds
# ----------------------------------------------------------------------
OUTCOMES = [("executed", None), ("rejected", "insufficient funds"),
            ("rejected", "client signature invalid")]


@st.composite
def linked(draw, scheme, contract=None):
    """``(cell, forwarded client envelope, the cell's confirmation of it)``.

    The confirmation names the called contract, ``""`` or another one
    (``contract`` pins it: a strategy of contract names).
    """
    cell = draw(st.sampled_from(COSIGNERS[scheme]))
    called = draw(ids)
    forwarded = Envelope.create(
        signer=SIGNER, recipient=cell.address, operation=Opcode.TX_SUBMIT,
        data={"contract": called, "method": "transfer", "args": {}},
        timestamp=1.5, nonce=draw(ids),
    )
    signed = draw(st.just(called) | st.just("") | ids if contract is None else contract)
    status, error = draw(st.sampled_from(OUTCOMES))
    confirmation = Confirmation.create(
        cell, forwarded.payload.hash_hex(), signed, draw(fingerprints), status,
        draw(ATOMS["seconds"]), error=error,
    )
    return cell, forwarded, confirmation


@schemes
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_link_confirmation_round_trips_and_rebuilds_the_signed_statement(scheme, data):
    cell, forwarded, confirmation = data.draw(linked(scheme))
    # The signer's own execution gives the fingerprint it signed, or (an
    # equivocating signer) another; the batch is stamped at its moment or later.
    own = data.draw(st.just(confirmation.fingerprint_hex) | fingerprints)
    moment = data.draw(st.just(confirmation.timestamp) | ATOMS["seconds"])
    batch = ConfirmationBatch((LinkConfirmation.of(confirmation, forwarded, own),))
    (sent,) = json.loads(as_json(batch.data_at(moment)))["confirmations"]
    # What the receiver holds or derives does not travel; an error, another
    # contract, another moment and a fingerprint not the signer's own do.
    assert not {"cell", "scheme"} & set(sent)
    # The transaction is named by the first 8 bytes of its id.
    assert sent["tx_id"] == confirmation.tx_id[:18]
    assert ("contract" in sent) == (confirmation.contract != called_contract(forwarded))
    assert ("error" in sent) == (confirmation.error is not None)
    derived = confirmation.status == "executed" and confirmation.error is None and (
        confirmation.fingerprint_hex == own
    )
    assert ("fingerprint" in sent) is ("status" in sent) is (not derived)
    assert ("timestamp" in sent) == (confirmation.timestamp != moment)
    parsed = LinkConfirmation.from_wire(sent)
    assert json.loads(as_json(parsed.to_wire())) == sent
    # The receiver states its own execution's fingerprint: the signer's, if they agree.
    rebuilt = parsed.confirmation(cell.address, cell.scheme, forwarded, moment, own)
    assert rebuilt.body() == confirmation.body()
    assert rebuilt == confirmation and rebuilt.verify()


@schemes
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_link_confirmation_rebuilt_for_another_sender_contract_or_transaction_does_not_verify(
    scheme, data
):
    cell, forwarded, confirmation = data.draw(linked(scheme))
    own = confirmation.fingerprint_hex
    sent = json.loads(as_json(LinkConfirmation.of(confirmation, forwarded, own).to_wire()))
    sender, moment = cell, confirmation.timestamp
    change = data.draw(st.sampled_from(["sender", "contract", "tx_id", "execution", "moment"]))
    if change == "sender":
        sender = data.draw(st.sampled_from([
            other for other in COSIGNERS[scheme] if other.address != cell.address
        ]))
    elif change == "contract":
        sent["contract"] = data.draw(ids.filter(lambda name: name != confirmation.contract))
    elif change == "tx_id":
        # Read under another transaction of the receiver's, which states its id.
        forwarded = Envelope.create(
            signer=SIGNER, recipient=cell.address, operation=Opcode.TX_SUBMIT,
            data=forwarded.data, timestamp=1.5,
            nonce=data.draw(ids.filter(lambda nonce: nonce != forwarded.nonce)),
        )
    elif change == "execution":
        # The receiver executed the call otherwise: its fingerprint is not the signer's.
        sent.pop("fingerprint", None)
        sent.pop("status", None)
        sent.pop("error", None)
        own = data.draw(fingerprints.filter(lambda fingerprint: fingerprint != own))
    else:
        sent.pop("timestamp", None)
        moment = data.draw(ATOMS["seconds"].filter(lambda at: at != confirmation.timestamp))
    rebuilt = LinkConfirmation.from_wire(sent).confirmation(
        sender.address, sender.scheme, forwarded, moment, own
    )
    assert not rebuilt.verify()


@schemes
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_contract_other_than_the_called_one_travels_and_still_verifies(scheme, data):
    cell, forwarded, confirmation = data.draw(linked(scheme, st.just("") | ids))
    called = called_contract(forwarded)
    item = LinkConfirmation.of(confirmation, forwarded)
    if confirmation.contract == called:
        # The called contract is left out, and the receiver's entry fills it in.
        assert item.contract is None
        return
    assert item.to_wire()["contract"] == confirmation.contract
    # Whatever contract the receiver's entry calls; the entry states the id,
    # so the statement verifies under its own transaction only.
    for receivers_entry in (forwarded, Envelope.create(
        signer=SIGNER, recipient=cell.address, operation=Opcode.TX_SUBMIT,
        data={"contract": called + "-other", "method": "transfer", "args": {}},
        timestamp=1.5, nonce="0x01",
    )):
        rebuilt = item.confirmation(
            cell.address, cell.scheme, receivers_entry, confirmation.timestamp
        )
        assert rebuilt.contract == confirmation.contract
        assert rebuilt.verify() is (receivers_entry is forwarded)


# ----------------------------------------------------------------------
# The client link: a receipt without what its client holds
# ----------------------------------------------------------------------
@st.composite
def replied(draw):
    """``(request, compact receipt, the receipt it states, reply scheme, reply
    moment, consortium)``.

    The service cell builds the compact receipt from its own confirmation
    and its peers'.  Every field the client can derive — from its request,
    from the reply's scheme and moment, or from the consortium — is drawn
    either equal to that or otherwise, except the submission time: the
    service cell reads it off the request.
    """
    cells = draw(st.lists(
        st.sampled_from(COSIGNERS["sim"] + COSIGNERS["ecdsa"]), min_size=1, max_size=3,
        unique_by=lambda cell: cell.address,
    ))
    called, method, moment = draw(ids), draw(ids), draw(ATOMS["seconds"])
    request = Envelope.create(
        signer=SIGNER, recipient=cells[0].address, operation=Opcode.TX_SUBMIT,
        data={"contract": called, "method": method, "args": {}},
        timestamp=draw(ATOMS["seconds"]), nonce=draw(ids),
    )
    tx_id, contract = request.payload.hash_hex(), draw(st.just(called) | ids)
    fields = dict(
        method=draw(st.just(method) | ids), result=draw(json_values),
        cycle=draw(st.integers(0, 10**6)),
    )
    statement = dict(
        tx_id=tx_id, contract=contract,
        fingerprint_hex=executed_fingerprint_hex(tx_id, contract, fields["method"],
                                                 fields["result"]),
    )
    own, *peers = [
        Confirmation.create(
            cell, status="executed", timestamp=draw(st.just(moment) | ATOMS["seconds"]),
            **statement,
        )
        for cell in cells
    ]
    scheme = draw(st.sampled_from(["sim", "ecdsa"]))
    # The co-signers, or a consortium with one more cell (one excluded).
    consortium = [cell.address for cell in cells]
    if draw(st.booleans()):
        consortium.insert(draw(st.integers(0, len(consortium))), draw(ATOMS["address"]))
    compact = CompactReceipt.of(
        own, peers, request, **fields, scheme=scheme, moment=moment, consortium=consortium
    )
    receipt = cosigned(
        [own, *peers], **statement, **fields, submitted_at=request.payload.timestamp,
        completed_at=own.timestamp,
    )
    return request, compact, receipt, scheme, moment, consortium


def _reply(request, sender, scheme, moment, data):
    """A ``TX_RECEIPT`` as the client reads it: unsigned, from the cell it asked."""
    return Envelope.unsigned(sender, scheme, request.sender, Opcode.TX_RECEIPT, data, moment,
                             reply_to=request.nonce)


@settings(max_examples=30, deadline=None)
@given(served=replied())
def test_a_receipt_sent_compact_rebuilds_exactly_from_the_request_and_the_reply(served):
    request, compact, receipt, scheme, moment, consortium = served
    sent = json.loads(as_json(compact.to_wire()))
    # What the client derives travels only where the receipt states otherwise.
    assert not {"tx_id", "service_cell", "status", "submitted_at", "completed_at"} & set(sent)
    others = [cell for cell in consortium if cell != receipt.service_cell]
    assert [("cell" in peer) for peer in sent["cosigners"]] == [
        [peer.cell for peer in receipt.cosigners[1:]] != others
    ] * len(sent["cosigners"])
    own, *peers = receipt.cosigners
    derived = {
        "contract": (receipt.contract, called_contract(request)),
        "method": (receipt.method, request.data["method"]),
        "timestamp": (own.timestamp, moment),
        "scheme": (own.scheme, scheme),
    }
    for key, (stated, derivable) in derived.items():
        assert (key in sent) == (stated != derivable), key
    assert [("scheme" in peer) for peer in sent["cosigners"]] == [
        peer.scheme != scheme for peer in peers
    ]
    reply = _reply(request, receipt.service_cell, scheme, moment, sent)
    rebuilt = CompactReceipt.from_wire(sent).rebuild(request, reply, consortium)
    assert rebuilt == receipt
    assert as_json(rebuilt.to_wire()) == as_json(receipt.to_wire())
    assert rebuilt.verify(expected_cells=[cosigner.cell for cosigner in receipt.cosigners])


@settings(max_examples=20, deadline=None)
@given(served=replied())
def test_a_compact_receipt_rebuilt_from_another_request_verifies_for_no_cosigner(served):
    request, compact, receipt, scheme, moment, consortium = served
    sent = compact.to_wire()
    other = Envelope.create(
        signer=SIGNER, recipient=request.recipient, operation=Opcode.TX_SUBMIT,
        data=request.data, timestamp=request.payload.timestamp, nonce=request.nonce + "'",
    )
    reply = _reply(other, receipt.service_cell, scheme, moment, sent)
    rebuilt = CompactReceipt.from_wire(sent).rebuild(other, reply, consortium)
    assert not any(confirmation.verify() for confirmation in rebuilt.confirmations)


# ----------------------------------------------------------------------
# The voucher legs: a voucher without what its reader's call states
# ----------------------------------------------------------------------
@schemes
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_compact_voucher_rebuilds_the_signed_voucher_from_the_redeem_call(scheme, data):
    """The redeem call and the destination's group complete the voucher, byte for
    byte as its issuer signed it; a call that spends anything else does not verify."""
    issuer = data.draw(st.sampled_from(COSIGNERS[scheme]))
    source, target = data.draw(groups)[:2]
    contract = data.draw(ids)
    args = {
        "xtx": data.draw(ids), "to": data.draw(ids), "amount": data.draw(ATOMS["integer"]),
        "expires_at": data.draw(st.integers(0, 10**9) | ATOMS["seconds"]),
    }
    xtx, recipient, amount, expires_at = voucher_terms(args)
    voucher = CrossShardVoucher.create(
        issuer, xtx, source, target, contract, recipient, amount, expires_at
    )
    carried = data.draw(st.sampled_from(["sim", "ecdsa"]))
    sent = json.loads(as_json(CompactVoucher.of(voucher, carried).to_wire()))
    assert set(sent) == {"issuer", "source_group", "signature"} | (
        {"scheme"} if carried != issuer.scheme else set()
    )
    compact = CompactVoucher.from_wire(sent)
    rebuilt = compact.voucher(target, contract, args, carried)
    assert rebuilt.body() == voucher.body() and rebuilt == voucher and rebuilt.verify()
    key = data.draw(st.sampled_from(["to", "amount", "expires_at", "contract", "group"]))
    if key == "contract":
        other = compact.voucher(target, contract + "'", args, carried)
    elif key == "group":
        other = compact.voucher(target + 1 if target + 1 != source else target + 2,
                                contract, args, carried)
    else:
        spent = {**args, key: args[key] + ("'" if key == "to" else 1)}
        other = compact.voucher(target, contract, spent, carried)
    assert not other.verify()
