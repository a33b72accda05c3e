"""The route table drives the ingress stage: every routed opcode, every refusal.

:mod:`repro.core.routes` declares each opcode once; these tests are
generated from that declaration, so a new row is covered the moment it is
written (and the completeness checks fail until it has its samples here).
For every routed opcode a hostile probe sends a flipped signature, a
sender of the wrong class, an empty data field and a wrongly typed one:
the simulation must keep running, the route's *declared* counter must tick
exactly once (with one ``TX_ERROR`` where the route answers), and nothing
the protocol owns may move.  As the control, the same well-formed sample
from the entitled sender passes ingress with no refusal counter moving.
"""

import dataclasses
from operator import attrgetter

import pytest

from repro.contracts.community import FastMoney
from repro.core.receipts import Confirmation, ConfirmationBatch, LinkConfirmation
from repro.core.recovery import MembershipManager
from repro.core.routes import REPLIES, REPLY_ONLY, ROUTES, Sender
from repro.messages import Envelope, Opcode, SimulatedSigner, wire
from repro.messages.batch import ForwardBatch
from repro.messages.envelope import NonceFactory
from repro.messages.membership import (
    ExclusionProposal,
    ExclusionVote,
    MembershipUpdate,
    RejoinAck,
    RejoinRequest,
    SyncRequest,
    SyncState,
)
from repro.messages.signer import SignedStatement
from repro.messages.xshard import (
    CrossShardDecision,
    CrossShardPrepare,
    CrossShardVote,
    CrossShardVoucherTransfer,
)
from tests.conftest import make_deployment, make_sharded_deployment

ROUTED = sorted(ROUTES, key=lambda opcode: opcode.value)
FINGERPRINT = "0x" + "22" * 32


# ----------------------------------------------------------------------
# Completeness of the declaration
# ----------------------------------------------------------------------
def test_every_opcode_is_routed_or_reply_only():
    assert set(ROUTES) | REPLY_ONLY == set(Opcode)
    assert not set(ROUTES) & REPLY_ONLY
    assert (len(ROUTES), len(REPLY_ONLY)) == (20, 7)


def test_every_opcode_a_cell_answers_with_has_a_declared_body():
    """Read off the sources: each ``reply(node, request, Opcode.X, …)`` of the cell side.

    What goes to a client or an auditor must have a ``REPLIES`` row (its
    requester reads it through ``read_reply``); what goes to a peer must be
    a routed opcode with a body, which the peer's ingress stage parses.
    """
    import ast
    import pathlib

    import repro.core

    emitted = set()
    for path in pathlib.Path(repro.core.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "reply":
                opcode = node.args[2]
                assert isinstance(opcode, ast.Attribute) and opcode.value.id == "Opcode", (
                    f"{path.name}:{node.lineno}: name the reply opcode where it is sent"
                )
                emitted.add(Opcode[opcode.attr])
    assert len(emitted) >= 12
    for opcode in emitted:
        route = ROUTES.get(opcode)
        assert opcode in REPLIES or (route is not None and route.sender is Sender.CELL
                                     and route.body is not None), opcode
    assert REPLY_ONLY < emitted, "a reply-only opcode no cell ever sends is dead surface"
    assert set(REPLIES) <= emitted
    assert REPLY_ONLY == set(REPLIES) - set(ROUTES)


def test_every_routed_opcode_has_a_parser_and_a_handler():
    cell = make_sharded_deployment(2, signature_scheme="sim").group(0).gateway
    for opcode, route in ROUTES.items():
        assert (route.body is None) == (opcode is Opcode.PING), opcode
        assert callable(attrgetter(route.handler)(cell)), route.handler
        # Admission control bounds confirmation rounds, which only client
        # requests start, and a slot is only ever held by a process.
        if route.admission is not None:
            assert route.sender is Sender.CLIENT and route.delayed, opcode


# ----------------------------------------------------------------------
# A hostile node and one sample of everything it can say
# ----------------------------------------------------------------------
class RouteProbe:
    """A raw network node in front of group 0's gateway cell."""

    def __init__(self) -> None:
        self.sharded = make_sharded_deployment(2, consortium_size=3, signature_scheme="sim")
        self.env = self.sharded.env
        self.deployment = self.sharded.group(0).deployment
        self.cell, self.peer, self.third = self.deployment.cells
        self.client = self.deployment.make_client_signer("mallory")
        self.nonces = NonceFactory(self.client.address)
        self.sharded.deploy_contract_instances(
            [FastMoney("pay", params={
                "genesis_balances": {self.client.address.hex(): 100}, "allow_faucet": False,
            })],
            group=0,
        )
        self.replies: list[Envelope] = []
        self.sharded.network.register(
            "probe", handler=lambda _src, reply, _size: self.replies.append(reply)
        )

    def envelope(self, operation, data, signer=None, recipient=None) -> Envelope:
        return Envelope.create(
            signer=signer or self.client, recipient=recipient or self.cell.address,
            operation=operation, data=data, timestamp=self.env.now, nonce=self.nonces.next(),
        )

    def entitled_signer(self, opcode):
        """A signer of the class the route admits."""
        return self.peer.signer if ROUTES[opcode].sender is Sender.CELL else self.client

    def well_formed(self, opcode) -> dict:
        """A data field the route's parser accepts."""
        call = {"contract": "pay", "method": "transfer", "args": {"to": "0x" + "55" * 20, "amount": 1}}
        submission = self.envelope(Opcode.TX_SUBMIT, call)
        # A cross-shard body nests the client's submission without the
        # identities of the outer envelope (the same client, this cell); a
        # forward item without its recipient, the forwarding peer.
        inner = submission.to_link(with_sender=False)
        forwarded = self.envelope(Opcode.TX_SUBMIT, call, recipient=self.peer.address)
        confirmation = Confirmation.create(
            self.peer.signer, tx_id="0x" + "11" * 32, contract="pay",
            fingerprint_hex=FINGERPRINT, status="executed", timestamp=0.0,
        )
        vote = ExclusionVote.create(self.peer.signer, self.third.address, cycle=0, agree=True)
        ack = RejoinAck.create(
            self.peer.signer, rejoiner=self.cell.address, cycle=0,
            fingerprint_hex=FINGERPRINT, agree=True,
        )
        decision = dict(xtx="0xfeed", group=0, participants=(0, 1), transaction=inner)
        return {
            Opcode.TX_SUBMIT: call,
            Opcode.SUBSCRIBE: {"plan": "standard"},
            Opcode.QUERY_STATE: {"contract": "pay", "view": "balance_of", "args": {}},
            Opcode.XSHARD_PREPARE: CrossShardPrepare(**decision).to_data(),
            Opcode.XSHARD_COMMIT: CrossShardDecision(decision="commit", **decision).to_data(),
            Opcode.XSHARD_ABORT: CrossShardDecision(decision="abort", **decision).to_data(),
            Opcode.XSHARD_VOUCHER: CrossShardVoucherTransfer(
                xtx="0xfeed", phase="mint", group=0, transaction=inner,
                target_group=1, target_contract="pay",
            ).to_data(),
            Opcode.TX_FORWARD: ForwardBatch.of([forwarded]).to_data(),
            Opcode.TX_CONFIRM: ConfirmationBatch(
                (LinkConfirmation.of(confirmation, submission),)
            ).to_data(),
            Opcode.CELL_EXCLUDE: ExclusionProposal(self.third.address, 0, "probe").to_data(),
            Opcode.CELL_EXCLUDE_VOTE: vote.to_data(),
            Opcode.MEMBERSHIP_UPDATE: MembershipUpdate(
                action="exclude", subject=self.third.address, cycle=0, votes=(vote,)
            ).to_data(),
            Opcode.CELL_REJOIN: RejoinRequest(
                cell=self.peer.address, cycle=0, basis_cycle=0, last_sequence=-1,
                fingerprint_hex=FINGERPRINT,
            ).to_data(),
            Opcode.CELL_REJOIN_ACK: ack.to_data(),
            Opcode.CELL_SYNC: SyncRequest(since_sequence=0).to_data(),
            Opcode.CELL_SYNC_STATE: SyncState(
                donor=self.peer.address, snapshot=None, entries=(), head=0
            ).to_data(),
            Opcode.SNAPSHOT_REQUEST: {"cycle": 0},
            Opcode.LEDGER_REQUEST: {"first_cycle": 0, "last_cycle": 1},
            Opcode.PING: {"probe": True},
            Opcode.PONG: {"node": self.peer.node_name},
        }[opcode]

    def passing(self, opcode) -> dict:
        """:meth:`well_formed`, made to pass the handler too where it must.

        A confirmation is rebuilt from its receiver's own ledger entry: the
        sample's transaction was never admitted here, so one is admitted
        and confirmed (call this before taking :meth:`protocol_state`).
        """
        if opcode is not Opcode.TX_CONFIRM:
            return self.well_formed(opcode)
        submission = self.envelope(Opcode.TX_SUBMIT, {"contract": "pay", "method": "faucet"})
        entry = self.cell.ledger.admit(submission, cycle=0)
        confirmation = Confirmation.create(
            self.peer.signer, tx_id=entry.tx_id, contract="pay",
            fingerprint_hex=FINGERPRINT, status="executed", timestamp=0.0,
        )
        return ConfirmationBatch((LinkConfirmation.of(confirmation, submission),)).to_data()

    def send(self, envelope: Envelope) -> None:
        self.sharded.network.send("probe", self.cell.node_name, envelope, envelope.byte_size())

    def protocol_state(self) -> dict:
        """Everything a refused message must leave exactly as it was."""
        cells = self.deployment.cells
        return {
            "ledgers": [len(cell.ledger) for cell in cells],
            "fingerprints": [cell.contracts.fingerprints() for cell in cells],
            "excluded": [cell.consensus.excluded_cells() for cell in cells],
            "inflight": [cell.inflight for cell in cells],
            "xshard": self.cell.statistics()["xshard_transactions"],
            "subscribers": self.cell.subscriptions.subscribers(),
        }

    def settle(self) -> None:
        self.env.run(until=self.env.now + self.deployment.config.forwarding_deadline + 1.0)

    def refusal_ticks(self) -> dict[str, float]:
        """Every refusal counter of the probed cell that moved."""
        prefix = f"{self.cell.node_name}/"
        return {
            name[len(prefix):]: count
            for name, count in self.sharded.metrics.counters.items()
            if name.startswith(prefix) and count
            and ("auth_failures" in name or "malformed" in name)
        }


#: One wrongly *typed* data field per parsed opcode: the right keys, the
#: wrong kinds of value.
WRONGLY_TYPED: dict[Opcode, dict] = {
    Opcode.TX_SUBMIT: {"contract": 7, "method": "transfer", "args": {}},
    Opcode.SUBSCRIBE: {"plan": 7},
    Opcode.QUERY_STATE: {"contract": "pay", "view": ["balance_of"], "args": {}},
    Opcode.XSHARD_PREPARE: {
        "xtx": "0xfeed", "group": "zero", "participants": [0, 1], "transaction": {},
    },
    Opcode.XSHARD_COMMIT: {
        "xtx": "0xfeed", "decision": 7, "group": 0, "participants": [0, 1], "transaction": {},
    },
    Opcode.XSHARD_ABORT: {
        "xtx": "0xfeed", "decision": "abort", "group": 0, "participants": 5, "transaction": {},
    },
    Opcode.XSHARD_VOUCHER: {
        "xtx": "0xfeed", "phase": "mint", "group": 0, "transaction": "not an envelope",
    },
    Opcode.TX_FORWARD: {"transactions": [{"payload": "garbage"}]},
    Opcode.TX_CONFIRM: {"confirmations": ["not a wire object"]},
    Opcode.CELL_EXCLUDE: {"suspect": 7, "cycle": "abc"},
    Opcode.CELL_EXCLUDE_VOTE: {"vote": "not a wire object"},
    Opcode.MEMBERSHIP_UPDATE: {
        "action": "exclude", "subject": "0x" + "55" * 20, "cycle": [1], "votes": [],
    },
    Opcode.CELL_REJOIN: {
        "cell": 1, "cycle": 0, "basis_cycle": 0, "last_sequence": 0, "fingerprint": "0x",
    },
    Opcode.CELL_REJOIN_ACK: {"ack": [1]},
    Opcode.CELL_SYNC: {"since_sequence": "abc"},
    Opcode.CELL_SYNC_STATE: {"donor": 7, "snapshot": "not an object", "entries": {}},
    Opcode.SNAPSHOT_REQUEST: {"cycle": "abc"},
    Opcode.LEDGER_REQUEST: {"first_cycle": [1]},
    Opcode.PONG: {"node": 7},
}


def test_the_samples_cover_the_table_and_mean_what_they_say():
    probe = RouteProbe()
    assert set(WRONGLY_TYPED) == {op for op, route in ROUTES.items() if route.body is not None}
    for opcode, route in ROUTES.items():
        if route.body is None:
            continue
        route.body.from_data(probe.well_formed(opcode))  # must not raise
        with pytest.raises(ValueError):
            route.body.from_data(WRONGLY_TYPED[opcode])


# ----------------------------------------------------------------------
# The matrix: every routed opcode x every way of being refused
# ----------------------------------------------------------------------
def assert_refused(probe: RouteProbe, opcode, counter: str, before: dict, error=None) -> None:
    route = ROUTES[opcode]
    assert probe.refusal_ticks() == {counter: 1}
    if route.refusal.answered:
        assert [reply.operation for reply in probe.replies] == [Opcode.TX_ERROR]
        if error is not None:
            assert probe.replies[0].data["error"] == error
    else:
        assert probe.replies == []
    assert probe.protocol_state() == before


@pytest.mark.parametrize("opcode", ROUTED, ids=lambda opcode: opcode.value)
def test_the_well_formed_sample_from_its_sender_passes_ingress(opcode):
    """The control for the matrix below: each refusal there is the hostile
    change alone, not a sample the route would refuse anyway."""
    probe = RouteProbe()
    data = probe.passing(opcode)
    probe.send(probe.envelope(opcode, data, signer=probe.entitled_signer(opcode)))
    probe.settle()
    assert probe.refusal_ticks() == {}
    assert all(
        reply.data.get("error") != "authentication failed" for reply in probe.replies
    )


@pytest.mark.parametrize("opcode", ROUTED, ids=lambda opcode: opcode.value)
def test_a_flipped_signature_is_refused_on_every_route(opcode):
    probe = RouteProbe()
    before = probe.protocol_state()
    honest = probe.envelope(opcode, probe.well_formed(opcode), signer=probe.entitled_signer(opcode))
    probe.send(dataclasses.replace(
        honest, signature=bytes(byte ^ 0xFF for byte in honest.signature)
    ))
    probe.settle()
    assert_refused(
        probe, opcode, ROUTES[opcode].refusal.auth_counter, before, "authentication failed"
    )


@pytest.mark.parametrize(
    "opcode",
    [opcode for opcode in ROUTED if ROUTES[opcode].sender is not Sender.ANYONE],
    ids=lambda opcode: opcode.value,
)
def test_a_sender_of_the_wrong_class_is_refused_on_every_route(opcode):
    probe = RouteProbe()
    before = probe.protocol_state()
    if ROUTES[opcode].sender is Sender.CLIENT:
        # Signed for a sibling cell and replayed onto this one.
        hostile = probe.envelope(opcode, probe.well_formed(opcode), recipient=probe.peer.address)
    else:
        # A cell-to-cell opcode signed by an identity outside the consortium.
        hostile = probe.envelope(opcode, probe.well_formed(opcode), signer=probe.client)
    probe.send(hostile)
    probe.settle()
    assert_refused(
        probe, opcode, ROUTES[opcode].refusal.auth_counter, before, "authentication failed"
    )


@pytest.mark.parametrize(
    "opcode",
    [opcode for opcode in ROUTED if ROUTES[opcode].sender is not Sender.CLIENT],
    ids=lambda opcode: opcode.value,
)
def test_an_envelope_addressed_to_another_cell_is_refused_on_every_route(opcode):
    """A message travels without its recipient and is read under the
    receiver's address: one its entitled sender signed for a sibling cell,
    relayed here, does not verify."""
    probe = RouteProbe()
    data = probe.passing(opcode)
    before = probe.protocol_state()
    probe.send(probe.envelope(
        opcode, data, signer=probe.entitled_signer(opcode), recipient=probe.third.address
    ))
    probe.settle()
    assert_refused(
        probe, opcode, ROUTES[opcode].refusal.auth_counter, before, "authentication failed"
    )


def test_a_forward_item_unreadable_under_its_forwarder_refuses_the_whole_forward():
    """Ingress parses the items' structure; the payload is read with the
    forwarder's address, and one that cannot be refuses every item."""
    probe = RouteProbe()
    before = probe.protocol_state()
    (good,) = probe.well_formed(Opcode.TX_FORWARD)["transactions"]
    bad = {**good, "payload": {**good["payload"], "nonce": 7}}
    probe.send(probe.envelope(
        Opcode.TX_FORWARD, {"transactions": [good, bad]}, signer=probe.peer.signer
    ))
    probe.settle()
    assert_refused(probe, Opcode.TX_FORWARD, ROUTES[Opcode.TX_FORWARD].refusal.malformed_counter,
                   before)


@pytest.mark.parametrize("shape", ["empty", "wrongly_typed"])
@pytest.mark.parametrize(
    "opcode",
    [opcode for opcode in ROUTED if ROUTES[opcode].body is not None],
    ids=lambda opcode: opcode.value,
)
def test_a_malformed_body_is_refused_on_every_route(opcode, shape):
    probe = RouteProbe()
    before = probe.protocol_state()
    data = {} if shape == "empty" else WRONGLY_TYPED[opcode]
    probe.send(probe.envelope(opcode, data, signer=probe.entitled_signer(opcode)))
    probe.settle()
    try:
        ROUTES[opcode].body.from_data(data)
    except ValueError:
        assert_refused(probe, opcode, ROUTES[opcode].refusal.malformed_counter, before)
    else:
        # Every field of this body is optional, so ``{}`` is a request like
        # any other: served, and no refusal counter moves.
        assert shape == "empty" and opcode in (
            Opcode.SUBSCRIBE, Opcode.SNAPSHOT_REQUEST, Opcode.LEDGER_REQUEST
        )
        assert probe.refusal_ticks() == {}
        assert len(probe.replies) == 1


# ----------------------------------------------------------------------
# The statement matrix: every signed statement a route carries x every
# declared field x every JSON value of another type, *validly signed*
# ----------------------------------------------------------------------
WRONG_VALUES = [None, True, 7, 1.5, "x", [], {}, [1], {"a": 1}]


def carried_statements(body, path=()):
    """``(wire keys down to it, in a list?, statement class)`` of every statement in ``body``.

    A link item carries a confirmation's signed fields under the same keys;
    the cell rebuilds the statement from it.
    """
    if body is LinkConfirmation:
        body = Confirmation
    if issubclass(body, SignedStatement):
        yield path, body
        return
    for item in wire.fields(body):
        kind, listed = item.kind, False
        while kind.shape in ("optional", "list"):
            kind, listed = kind.of, listed or kind.shape == "list"
        if kind.shape == "nested" and issubclass(kind.of, wire.Body):
            yield from carried_statements(kind.of, path + ((item.key, listed),))


STATEMENT_FIELDS = [
    pytest.param(opcode, path, statement, item, id=f"{opcode.value}-{statement.__name__}-{item.key}")
    for opcode in ROUTED
    if ROUTES[opcode].body is not None and issubclass(ROUTES[opcode].body, wire.Body)
    for path, statement in carried_statements(ROUTES[opcode].body)
    for item in wire.fields(statement)
    if item.signed and item.name != statement.SIGNER  # what ``create`` takes
]


def test_the_statement_matrix_covers_every_statement_a_route_carries():
    carried = {(values[0], values[2].__name__) for values in (p.values for p in STATEMENT_FIELDS)}
    assert carried == {
        (Opcode.TX_CONFIRM, "Confirmation"),
        (Opcode.CELL_EXCLUDE_VOTE, "ExclusionVote"), (Opcode.CELL_REJOIN_ACK, "RejoinAck"),
        (Opcode.MEMBERSHIP_UPDATE, "ExclusionVote"), (Opcode.MEMBERSHIP_UPDATE, "RejoinAck"),
        (Opcode.XSHARD_COMMIT, "CrossShardVote"), (Opcode.XSHARD_ABORT, "CrossShardVote"),
    }


def wrongly_typed_statements(statement, item, signer, subject):
    """Every ``statement`` ``signer`` can validly sign with ``item`` of the wrong JSON type."""
    honest = {
        Confirmation: dict(tx_id="0x" + "11" * 32, contract="pay", fingerprint_hex=FINGERPRINT,
                           status="executed", timestamp=0.0, error=None),
        ExclusionVote: dict(suspect=subject, cycle=0, agree=True),
        RejoinAck: dict(rejoiner=subject, cycle=0, fingerprint_hex=FINGERPRINT, agree=True,
                        admitted_head=3),
        CrossShardVote: dict(xtx="0xfeed", group=0, participants=(0, 1), phase="prepare", ok=True),
    }[statement]
    for value in WRONG_VALUES:
        if type(value) in item.kind.types:
            continue
        try:
            hostile = statement.create(signer, **{**honest, item.name: value})
        except (ValueError, TypeError, AttributeError):
            continue  # cannot even be built: nothing to send
        if type(hostile.to_wire()[item.key]) not in item.kind.types:  # else: its encoder mended it
            assert hostile.verify(), "validly signed: only the field's type is wrong"
            yield hostile


def test_most_of_the_statement_matrix_can_be_signed_and_sent():
    signer = SimulatedSigner("matrix-signer")
    built = sum(
        len(list(wrongly_typed_statements(statement, item, signer, signer.address)))
        for _opcode, _path, statement, item in (param.values for param in STATEMENT_FIELDS)
    )
    # The rest (addresses, phases) are refused by ``create``.  183 are built:
    # 261 (floor 200) when three routes carried a Confirmation, 39 each.
    assert built >= 180


@pytest.mark.parametrize("opcode, path, statement, item", STATEMENT_FIELDS)
def test_a_well_signed_statement_with_a_wrongly_typed_field_is_a_malformed_body(
    opcode, path, statement, item
):
    probe = RouteProbe()
    before = probe.protocol_state()
    sent = 0
    for hostile in wrongly_typed_statements(
        statement, item, probe.peer.signer, probe.third.address
    ):
        data = hostile.to_data() if not path else probe.well_formed(opcode)
        for key, listed in path:
            data[key] = [hostile.to_wire()] if listed else hostile.to_wire()
        probe.send(probe.envelope(opcode, data, signer=probe.entitled_signer(opcode)))
        probe.settle()  # used to raise TypeError: unhashable type for ``tx_id: []``
        sent += 1
        assert probe.refusal_ticks() == {ROUTES[opcode].refusal.malformed_counter: sent}
        assert probe.protocol_state() == before
    replies = [reply.operation for reply in probe.replies]
    assert replies == ([Opcode.TX_ERROR] * sent if ROUTES[opcode].refusal.answered else [])


def test_a_reply_only_opcode_sent_to_a_cell_is_counted_and_dropped():
    probe = RouteProbe()
    before = probe.protocol_state()
    for opcode in sorted(REPLY_ONLY, key=lambda opcode: opcode.value):
        probe.send(probe.envelope(opcode, {"error": "spoofed"}))
    probe.settle()
    for opcode in REPLY_ONLY:
        name = f"{probe.cell.node_name}/unhandled_{opcode.value}"
        assert probe.sharded.metrics.counter(name) == 1
    assert probe.replies == [] and probe.protocol_state() == before


# ----------------------------------------------------------------------
# Regression: auditor requests used to end the simulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", ["abc", None, [1], -1], ids=repr)
@pytest.mark.parametrize(
    "opcode, field",
    [
        (Opcode.LEDGER_REQUEST, "first_cycle"),
        (Opcode.LEDGER_REQUEST, "last_cycle"),
        (Opcode.SNAPSHOT_REQUEST, "cycle"),
    ],
)
def test_a_malformed_auditor_request_is_answered_not_raised(opcode, field, value):
    deployment = make_deployment(signature_scheme="sim")
    cell = deployment.cell(0)
    auditor = deployment.make_client_signer("auditor")
    replies: list[Envelope] = []
    deployment.network.register("auditor", handler=lambda _s, reply, _n: replies.append(reply))
    request = Envelope.create(
        signer=auditor, recipient=cell.address, operation=opcode, data={field: value},
        timestamp=0.0, nonce=NonceFactory(auditor.address).next(),
    )
    deployment.network.send("auditor", cell.node_name, request, request.byte_size())
    deployment.run(until=1.0)  # used to raise ValueError / TypeError out of the kernel

    assert [reply.operation for reply in replies] == [Opcode.TX_ERROR]
    malformed = deployment.metrics.counter(f"{cell.node_name}/malformed_messages")
    if opcode is Opcode.SNAPSHOT_REQUEST and value is None:
        # A null cycle asks for the latest snapshot; none exists yet.
        assert malformed == 0 and "no snapshot" in replies[0].data["error"]
    else:
        assert malformed == 1 and field in replies[0].data["error"]


# ----------------------------------------------------------------------
# Regression: reply opcodes used to be open to non-members
# ----------------------------------------------------------------------
@pytest.mark.parametrize("answered_by", ["client", "third cell", "donor"])
def test_only_the_donor_it_asked_can_answer_a_sync_request(answered_by):
    probe = RouteProbe()
    cell, donor = probe.cell, probe.peer
    signer = {
        "client": probe.client, "third cell": probe.third.signer, "donor": donor.signer,
    }[answered_by]
    answers = []

    def answer_in_the_donors_place(_src, request, _size) -> None:
        # Whoever sees the request learns its nonce and answers it.
        reply = Envelope.create(
            signer=signer, recipient=cell.address, operation=Opcode.CELL_SYNC_STATE,
            data=SyncState(donor=donor.address, snapshot=None, entries=(), head=0).to_data(),
            timestamp=probe.env.now, nonce=probe.nonces.next(), reply_to=request.nonce,
        )
        probe.sharded.network.send("wiretap", cell.node_name, reply, reply.byte_size())

    probe.sharded.network.register("wiretap", handler=answer_in_the_donors_place)

    def ask():
        _request, answer = cell.endpoint.ask(
            "wiretap", donor.address, Opcode.CELL_SYNC, SyncRequest(0).to_data(), deadline=1.0
        )
        answers.append((yield answer))

    probe.env.process(ask())
    probe.settle()
    if answered_by == "donor":
        assert answers[0].donor == donor.address and probe.refusal_ticks() == {}
    else:
        assert answers == [None], "the request must run into its deadline"
        assert probe.refusal_ticks() == {"membership_auth_failures": 1}


def test_a_pong_from_a_third_cell_does_not_vouch_for_the_suspect():
    deployment = make_deployment(consortium_size=3, signature_scheme="sim")
    prober, suspect, third = deployment.cells
    deployment.crash_cell(1)
    verdicts = []

    def answer_for_the_suspect(_src, ping, _size) -> None:
        # Whoever sits on the suspect's link answers the probe with a PONG
        # signed by a live third cell.
        pong = Envelope.create(
            signer=third.signer, recipient=prober.address, operation=Opcode.PONG,
            data={"node": suspect.node_name}, timestamp=deployment.env.now,
            nonce=third.nonces.next(), reply_to=ping.nonce,
        )
        deployment.network.send("wiretap", prober.node_name, pong, pong.byte_size())

    deployment.network.register("wiretap", handler=answer_for_the_suspect)
    prober.set_peers({**prober.peers, suspect.address: "wiretap"})

    def probe():
        verdicts.append((yield from prober.membership._probe(suspect.address)))

    deployment.env.process(probe())
    deployment.run(until=MembershipManager.PROBE_DEADLINE + 1.0)
    assert verdicts == [True], "the suspect stayed silent: the vote must be to exclude"
    assert deployment.metrics.counter(f"{prober.node_name}/membership_auth_failures") == 1


@pytest.mark.parametrize(
    "named", ["an excluded cell", "a live cell", "the receiving cell", "a non-member"]
)
def test_a_rejoin_request_naming_another_cell_is_refused(named):
    probe = RouteProbe()
    cell, third = probe.cell, probe.third
    subject = {
        "an excluded cell": third.address,
        "a live cell": third.address,
        "the receiving cell": cell.address,
        "a non-member": probe.client.address,
    }[named]
    if named == "an excluded cell":
        # The request claims this cell's own state: only the sender check
        # stands between it and an agreeing ack plus a provisional forward
        # to the sender's node.
        cell.consensus.exclude(third.address, 0)
    before = probe.protocol_state()
    request = RejoinRequest(
        cell=subject, cycle=0, basis_cycle=0, last_sequence=-1,
        fingerprint_hex=cell.membership._combined_fingerprint_hex(),
    )
    probe.send(probe.envelope(Opcode.CELL_REJOIN, request.to_data(), signer=probe.peer.signer))
    probe.settle()
    assert probe.refusal_ticks() == {"membership_auth_failures": 1}
    assert probe.replies == []
    assert cell.membership.provisional_forward_targets() == {}
    assert probe.protocol_state() == before
