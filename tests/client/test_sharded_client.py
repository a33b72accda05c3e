"""Client-side shard routing and the cross-shard 2PC protocol."""

import pytest

from repro.client import BlockumulusClient
from repro.contracts.community import FastMoney
from repro.client.sharded import (
    CrossShardResult,
    ShardRoutingError,
    ShardedClient,
    ShardedFastMoneyClient,
)
from repro.messages import Envelope, Opcode, SimulatedSigner
from repro.messages.xshard import (
    CompactVoucher,
    CrossShardDecision,
    CrossShardPrepare,
    CrossShardVote,
    CrossShardVoucher,
    CrossShardVoucherTransfer,
)
from tests.conftest import make_deployment, make_sharded_deployment


def pay_instances(deployment, alice, amount: int = 100):
    """Deploy one 'pay' FastMoney instance per group, funding alice on each."""
    names = []
    for group in range(deployment.shard_count):
        name = ShardedFastMoneyClient.instance_name("pay", group, deployment.shard_count)
        deployment.deploy_contract_instances(
            [
                FastMoney(
                    name,
                    params={
                        "genesis_balances": {alice.address.hex(): amount},
                        "allow_faucet": False,
                    },
                )
            ],
            group=group,
        )
        names.append(name)
    return names


def run_event(deployment, event):
    deployment.env.run(event)
    return event.value


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_every_deployed_contract_routes_to_exactly_one_group():
    deployment = make_sharded_deployment(3)
    client = ShardedClient(deployment)
    for name, owner in deployment.contract_locations.items():
        routes = {client.route(name, "anything", {}) for _ in range(3)}
        assert routes == {owner}


def test_unknown_contract_raises_a_clean_routing_error():
    deployment = make_sharded_deployment(2)
    client = ShardedClient(deployment)
    with pytest.raises(ShardRoutingError, match="no contract named 'nope'"):
        client.route("nope", "transfer", {})
    with pytest.raises(ShardRoutingError):
        client.submit("nope", "transfer", {"to": "0x" + "11" * 20, "amount": 1})
    with pytest.raises(ShardRoutingError):
        client.query("nope", "balance_of", {"account": "0x" + "11" * 20})


def test_cas_calls_route_by_digest_not_by_contract():
    deployment = make_sharded_deployment(4)
    client = ShardedClient(deployment)
    content = b"shard me"
    group = client.route("system.cas", "put", {"content_hex": "0x" + content.hex()})
    assert 0 <= group < 4
    from repro.contracts.system.cas import ContentAddressableStorage

    digest = ContentAddressableStorage.content_hash(content)
    assert client.route("system.cas", "get", {"digest": digest}) == group
    with pytest.raises(ShardRoutingError):
        client.route("system.cas", "get", {})


def test_in_group_submit_and_query_reach_the_owning_group():
    deployment = make_sharded_deployment(2)
    alice = deployment.group(0).make_client_signer("alice")
    names = pay_instances(deployment, alice)
    client = ShardedClient(deployment, signer=alice)
    recipient = "0x" + "22" * 20
    result = run_event(
        deployment,
        client.submit(names[1], "transfer", {"to": recipient, "amount": 5}),
    )
    assert result.ok, result.error
    balance = run_event(
        deployment, client.query(names[1], "balance_of", {"account": recipient})
    )
    assert balance == 5
    # The owning group's cells executed it; the other group never saw it.
    assert len(deployment.group(1).cells[0].ledger) == 1
    assert len(deployment.group(0).cells[0].ledger) == 0


# ----------------------------------------------------------------------
# Cross-shard transfers (the happy path)
# ----------------------------------------------------------------------
def test_cross_shard_transfer_commits_atomically():
    deployment = make_sharded_deployment(2)
    alice = deployment.group(0).make_client_signer("alice")
    names = pay_instances(deployment, alice)
    client = ShardedClient(deployment, signer=alice)
    app = ShardedFastMoneyClient(client, base_name="pay")
    recipient = "0x" + "33" * 20

    result = run_event(deployment, app.transfer_cross(0, 1, recipient, 30, signer=alice))
    assert isinstance(result, CrossShardResult)
    assert result.ok and result.decision == "commit", result.error
    assert set(result.prepare) == {0, 1} and all(v.ok for v in result.prepare.values())
    assert set(result.acks) == {0, 1} and all(v.ok for v in result.acks.values())

    # Value moved between the instances; total supply is conserved.
    source = deployment.group(0).cells[0].contracts.get(names[0])
    target = deployment.group(1).cells[0].contracts.get(names[1])
    assert source.query("balance_of", {"account": alice.address.hex()}) == 70
    assert target.query("balance_of", {"account": recipient}) == 30
    assert source.query("total_supply", {}) + target.query("total_supply", {}) == 200

    # Every cell of each group replicated its side of the escrow.
    for cell in deployment.group(0).cells:
        status = cell.contracts.get(names[0]).query("xshard_status", {"xtx": result.xtx})
        assert status["status"] == "settled"
    for cell in deployment.group(1).cells:
        status = cell.contracts.get(names[1]).query("xshard_status", {"xtx": result.xtx})
        assert status["status"] == "credited"

    # Within each group, the cells agree on content (admission order may
    # differ per cell, exactly as in the unsharded overlay).
    for group in deployment.groups:
        contents = {
            tuple(sorted((e.tx_id, e.status, str(e.error)) for e in cell.ledger))
            for cell in group.cells
        }
        assert len(contents) == 1
        fingerprints = {cell.ledger.cycle_execution_fingerprint(0) for cell in group.cells}
        assert len(fingerprints) == 1


def test_cross_shard_transfer_aborts_on_insufficient_funds():
    deployment = make_sharded_deployment(2)
    alice = deployment.group(0).make_client_signer("alice")
    names = pay_instances(deployment, alice, amount=10)
    client = ShardedClient(deployment, signer=alice)
    app = ShardedFastMoneyClient(client, base_name="pay")
    recipient = "0x" + "44" * 20

    result = run_event(deployment, app.transfer_cross(0, 1, recipient, 999, signer=alice))
    assert not result.ok and result.decision == "abort"
    assert "insufficient funds" in result.error
    assert not result.prepare[0].ok and result.prepare[1].ok
    # Only the group that held anything was rolled back.
    assert set(result.acks) == {1} and result.acks[1].ok

    source = deployment.group(0).cells[0].contracts.get(names[0])
    target = deployment.group(1).cells[0].contracts.get(names[1])
    assert source.query("balance_of", {"account": alice.address.hex()}) == 10
    assert target.query("balance_of", {"account": recipient}) == 0
    for cell in deployment.group(1).cells:
        status = cell.contracts.get(names[1]).query("xshard_status", {"xtx": result.xtx})
        assert status["status"] == "cancelled"


def test_account_hashing_splits_accounts_across_groups():
    deployment = make_sharded_deployment(4)
    client = ShardedClient(deployment)
    app = ShardedFastMoneyClient(client)
    groups = {
        app.shard_of_account("0x" + f"{index:040x}") for index in range(64)
    }
    assert groups == {0, 1, 2, 3}
    assert app.instance(2) == "fastmoney@s2"
    with pytest.raises(ShardRoutingError):
        app.transfer_cross(1, 1, "0x" + "55" * 20, 1)


# ----------------------------------------------------------------------
# Protocol safety at the gateway
# ----------------------------------------------------------------------
def test_commit_without_a_certificate_is_refused():
    deployment = make_sharded_deployment(2)
    alice = deployment.group(0).make_client_signer("alice")
    names = pay_instances(deployment, alice)
    client = ShardedClient(deployment, signer=alice)
    xtx = client.next_xtx()

    inner = client._sign_call(alice, 0, (names[0], "xshard_reserve", {"xtx": xtx, "amount": 10}))
    prepare = CrossShardPrepare(
        xtx=xtx, group=0, participants=(0, 1), transaction=inner.to_wire()
    )
    _request, waiter = client.clients[0].request(
        Opcode.XSHARD_PREPARE, prepare.to_data(), signer=alice
    )
    reply = run_event(deployment, waiter)
    assert CrossShardVote.from_data(reply.data).ok

    # A commit whose certificate carries no votes must be refused — and
    # the refusal is a plain error, never a signed vote (a signed
    # no-vote would itself be abort evidence).
    settle = client._sign_call(alice, 0, (names[0], "xshard_settle", {"xtx": xtx}))
    decision = CrossShardDecision(
        xtx=xtx, decision="commit", group=0, participants=(0, 1),
        transaction=settle.to_wire(), votes=(),
    )
    _request, waiter = client.clients[0].request(
        Opcode.XSHARD_COMMIT, decision.to_data(), signer=alice
    )
    reply = run_event(deployment, waiter)
    assert reply.operation == Opcode.TX_ERROR
    assert "missing prepare votes" in reply.data["error"]
    # The hold is untouched and can still be aborted.
    status = deployment.group(0).cells[0].contracts.get(names[0]).query(
        "xshard_status", {"xtx": xtx}
    )
    assert status["status"] == "held"


def test_commit_without_prepare_is_refused():
    deployment = make_sharded_deployment(2)
    alice = deployment.group(0).make_client_signer("alice")
    names = pay_instances(deployment, alice)
    client = ShardedClient(deployment, signer=alice)
    settle = client._sign_call(alice, 0, (names[0], "xshard_settle", {"xtx": "0x99"}))
    decision = CrossShardDecision(
        xtx="0x99", decision="commit", group=0, participants=(0, 1),
        transaction=settle.to_wire(), votes=(),
    )
    _request, waiter = client.clients[0].request(
        Opcode.XSHARD_COMMIT, decision.to_data(), signer=alice
    )
    reply = run_event(deployment, waiter)
    assert reply.operation == Opcode.TX_ERROR
    assert "no prepared" in reply.data["error"]


def test_inner_envelope_for_another_gateway_is_rejected():
    """One signed inner transaction cannot be replayed onto a second group."""
    deployment = make_sharded_deployment(2)
    alice = deployment.group(0).make_client_signer("alice")
    names = pay_instances(deployment, alice)
    client = ShardedClient(deployment, signer=alice)
    xtx = client.next_xtx()
    # The inner envelope is addressed to group 1's gateway…
    inner = client._sign_call(alice, 1, (names[1], "xshard_expect",
                                         {"xtx": xtx, "to": "0x" + "66" * 20, "amount": 5}))
    # …but the prepare is sent to group 0's gateway.
    prepare = CrossShardPrepare(
        xtx=xtx, group=0, participants=(0, 1), transaction=inner.to_wire()
    )
    _request, waiter = client.clients[0].request(
        Opcode.XSHARD_PREPARE, prepare.to_data(), signer=alice
    )
    reply = run_event(deployment, waiter)
    vote = CrossShardVote.from_data(reply.data)
    assert not vote.ok
    assert "invalid for this gateway" in reply.data["error"]
    assert len(deployment.group(0).cells[0].ledger) == 0


def xshard_request(kind, xtx, inner_wire, names):
    """(opcode, data) of one well-formed cross-shard request for group 0."""
    participants = (0, 1)
    if kind == "prepare":
        return Opcode.XSHARD_PREPARE, CrossShardPrepare(
            xtx=xtx, group=0, participants=participants, transaction=inner_wire
        ).to_data()
    if kind in ("commit", "abort"):
        opcode = Opcode.XSHARD_COMMIT if kind == "commit" else Opcode.XSHARD_ABORT
        return opcode, CrossShardDecision(
            xtx=xtx, decision=kind, group=0, participants=participants,
            transaction=inner_wire,
        ).to_data()
    if kind == "mint":
        return Opcode.XSHARD_VOUCHER, CrossShardVoucherTransfer(
            phase="mint", group=0, transaction=inner_wire,
            target_group=1, target_contract=names[1],
        ).to_data()
    # A well-formed voucher: the refusal comes before anyone checks its issuer.
    voucher = CrossShardVoucher.create(
        SimulatedSigner("voucher-issuer"), xtx, 1, 0, names[0], "0x" + "66" * 20, 10, 99.0
    )
    return Opcode.XSHARD_VOUCHER, CrossShardVoucherTransfer(
        phase="redeem", group=0, transaction=inner_wire,
        voucher=CompactVoucher.of(voucher, voucher.scheme),
    ).to_data()


@pytest.mark.parametrize("kind", ["prepare", "commit", "abort", "mint", "redeem"])
@pytest.mark.parametrize(
    "where, refusal",
    [
        ("sibling", "g0/cell-1 is not the cross-shard gateway of its group"),
        ("unsharded", "this deployment is not sharded"),
    ],
)
def test_cells_without_the_gateway_role_refuse_xshard_traffic(where, refusal, kind):
    """Only the designated gateway owns a group's 2PC state machine.

    A prepare replayed to a sibling cell after the gateway holds funds
    must be refused with a plain error — were the sibling to service it,
    the group-wide escrow would reject the duplicate and the sibling
    would sign a no-vote, manufacturing abort evidence against a
    commit-eligible transaction.  The same holds for every other
    cross-shard request, and for every cell of an unsharded deployment:
    a cell without the gateway role object answers from one place.
    """
    if where == "sibling":
        sharded = make_sharded_deployment(2)
        deployment = sharded.group(0)
        alice = deployment.make_client_signer("alice")
        names = pay_instances(sharded, alice)
        coordinator = ShardedClient(sharded, signer=alice)
        xtx = coordinator.next_xtx()
        # The gateway prepares first, so the replayed hold really is held.
        opcode, data = xshard_request(
            "prepare", xtx, coordinator._sign_call(
                alice, 0, (names[0], "xshard_reserve", {"xtx": xtx, "amount": 10})
            ).to_wire(), names,
        )
        _request, waiter = coordinator.clients[0].request(opcode, data, signer=alice)
        assert CrossShardVote.from_data(run_event(sharded, waiter).data).ok
        client = BlockumulusClient(deployment, signer=alice, service_cell_index=1)
    else:
        deployment = make_deployment()
        alice = deployment.make_client_signer("alice")
        names = ["pay", "pay"]
        xtx = "0x1"
        client = BlockumulusClient(deployment, signer=alice)
    cell = client.service_cell
    assert cell.gateway is None

    inner = Envelope.create(
        signer=alice, recipient=cell.address, operation=Opcode.TX_SUBMIT,
        data={"contract": names[0], "method": "xshard_reserve",
              "args": {"xtx": xtx, "amount": 10}},
        timestamp=deployment.env.now, nonce=client.nonces.next(),
    )
    admitted = len(cell.ledger)
    opcode, data = xshard_request(kind, xtx, inner.to_wire(), names)
    _request, waiter = client.request(opcode, data)
    reply = run_event(deployment, waiter)

    assert reply.operation == Opcode.TX_ERROR
    assert reply.data == {"error": refusal}
    assert len(cell.ledger) == admitted, "a refused request admits nothing"
    statistics = cell.statistics()
    assert statistics["xshard_transactions"] == 0
    assert statistics["admission"]["inflight"] == 0


def test_abort_after_all_yes_votes_is_refused():
    """Decisions are mutually exclusive: all-yes votes prove only commit.

    A coordinator that gathered yes votes from every participant cannot
    abort one side (e.g. to refund its hold while still crediting the
    other group): the abort certificate requires a genuine no-vote,
    which does not exist.
    """
    deployment = make_sharded_deployment(2)
    alice = deployment.group(0).make_client_signer("alice")
    names = pay_instances(deployment, alice)
    client = ShardedClient(deployment, signer=alice)
    xtx = client.next_xtx()
    participants = (0, 1)

    votes = []
    for group, call in (
        (0, (names[0], "xshard_reserve", {"xtx": xtx, "amount": 10})),
        (1, (names[1], "xshard_expect", {"xtx": xtx, "to": "0x" + "55" * 20, "amount": 10})),
    ):
        inner = client._sign_call(alice, group, call)
        prepare = CrossShardPrepare(
            xtx=xtx, group=group, participants=participants, transaction=inner.to_wire()
        )
        _request, waiter = client.clients[group].request(
            Opcode.XSHARD_PREPARE, prepare.to_data(), signer=alice
        )
        vote = CrossShardVote.from_data(run_event(deployment, waiter).data)
        assert vote.ok
        votes.append(vote)

    refund = client._sign_call(alice, 0, (names[0], "xshard_refund", {"xtx": xtx}))
    rogue_abort = CrossShardDecision(
        xtx=xtx, decision="abort", group=0, participants=participants,
        transaction=refund.to_wire(), votes=tuple(votes),
    )
    _request, waiter = client.clients[0].request(
        Opcode.XSHARD_ABORT, rogue_abort.to_data(), signer=alice
    )
    reply = run_event(deployment, waiter)
    assert reply.operation == Opcode.TX_ERROR
    assert "no verified no-vote" in reply.data["error"]
    # The hold is untouched: no refund happened.
    status = deployment.group(0).cells[0].contracts.get(names[0]).query(
        "xshard_status", {"xtx": xtx}
    )
    assert status["status"] == "held"


