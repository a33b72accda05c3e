"""Cross-shard 2PC edge interleavings, checked for value conservation.

The three interleavings the chaos ISSUE calls out, driven phase by phase
against the gateways (the coordinator is simulated by hand so it can
misbehave precisely):

* the coordinator crashes between PREPARE and the decision — the hold
  stays escrowed, and once its expiry passes the holder reclaims it
  unilaterally (``xshard_reclaim``);
* duplicate message delivery — a second PREPARE, a second COMMIT, and a
  re-delivered gateway VOTE are all refused/ignored without moving value
  twice;
* a half-driven commit — the source settled but the target's credit not
  yet delivered — is *in-transit* value: conserved, visible in the
  conservation oracle's metrics, and deliverable later with the same
  certificate.

Every test closes by running the value-conservation oracle over the
whole deployment, so "no value created or destroyed" is asserted in
every outcome, not just eyeballed on two balances.
"""

import pytest

from repro.audit import run_conservation_oracle
from repro.client.sharded import ShardedClient
from repro.contracts.community import FastMoney
from repro.core.sharding import GATEWAY_CELL_INDEX
from repro.messages import Opcode
from repro.messages.xshard import CrossShardDecision, CrossShardPrepare, CrossShardVote
from tests.conftest import make_sharded_deployment

BASE = "xedge"
FUNDING = 100


def build():
    """A two-group deployment with alice funded on both instances."""
    deployment = make_sharded_deployment(2)
    alice = deployment.group(0).make_client_signer("xedge/alice")
    names = []
    for group in range(2):
        name = f"{BASE}@s{group}"
        deployment.deploy_contract_instances(
            [FastMoney(name, params={"genesis_balances": {alice.address.hex(): FUNDING},
                                     "allow_faucet": False})],
            group=group,
        )
        names.append(name)
    client = ShardedClient(deployment, signer=alice)
    return deployment, alice, names, client


def minted():
    return {f"{BASE}@s{group}": FUNDING for group in range(2)}


def run_event(deployment, event):
    deployment.env.run(event)
    return event.value


def prepare(deployment, client, alice, group, call, xtx, participants=(0, 1)):
    """Send one XSHARD_PREPARE and return (vote, reply envelope)."""
    inner = client._sign_call(alice, group, call)
    body = CrossShardPrepare(
        xtx=xtx, group=group, participants=participants, transaction=inner.to_wire()
    )
    _request, waiter = client.clients[group].request(
        Opcode.XSHARD_PREPARE, body.to_data(), signer=alice
    )
    reply = run_event(deployment, waiter)
    if reply.operation != Opcode.XSHARD_VOTE:
        return None, reply
    return CrossShardVote.from_data(reply.data), reply


def decide(deployment, client, alice, group, call, xtx, decision, votes,
           participants=(0, 1)):
    """Send one XSHARD_COMMIT/ABORT and return the reply envelope."""
    inner = client._sign_call(alice, group, call)
    body = CrossShardDecision(
        xtx=xtx, decision=decision, group=group, participants=participants,
        transaction=inner.to_wire(), votes=tuple(votes),
    )
    opcode = Opcode.XSHARD_COMMIT if decision == "commit" else Opcode.XSHARD_ABORT
    _request, waiter = client.clients[group].request(opcode, body.to_data(), signer=alice)
    return run_event(deployment, waiter)


def escrow_status(deployment, group, name, xtx):
    return deployment.group(group).cells[0].contracts.get(name).query(
        "xshard_status", {"xtx": xtx}
    )


def assert_conserved(deployment, expect_in_transit=0):
    result = run_conservation_oracle(deployment, minted())
    assert result.passed, result.findings
    assert result.metrics["in_transit"] == expect_in_transit
    return result


# ----------------------------------------------------------------------
# Coordinator crash between PREPARE and COMMIT → reclaim after expiry
# ----------------------------------------------------------------------
def test_abandoned_hold_is_reclaimed_after_expiry():
    deployment, alice, names, client = build()
    xtx = client.next_xtx()
    expiry = deployment.env.now + 30.0

    votes = []
    for group, call in (
        (0, (names[0], "xshard_reserve",
             {"xtx": xtx, "amount": 25, "expires_at": expiry})),
        # The coordinator arms BOTH sides with the same expiry — that is
        # what makes a post-expiry commit refusable everywhere.
        (1, (names[1], "xshard_expect",
             {"xtx": xtx, "to": "0x" + "77" * 20, "amount": 25,
              "expires_at": expiry})),
    ):
        vote, _reply = prepare(deployment, client, alice, group, call, xtx)
        assert vote is not None and vote.ok
        votes.append(vote)
    # The coordinator "crashes" here: no decision is ever sent.  The hold
    # is escrowed, not lost — conservation counts it.
    assert escrow_status(deployment, 0, names[0], xtx)["status"] == "held"
    assert_conserved(deployment)
    source = deployment.group(0).cells[0].contracts.get(names[0])
    assert source.query("balance_of", {"account": alice.address.hex()}) == FUNDING - 25

    # Reclaiming before the expiry is refused.
    early = run_event(
        deployment, client.submit(names[0], "xshard_reclaim", {"xtx": xtx}, signer=alice)
    )
    assert not early.ok and "not expired" in early.error
    assert_conserved(deployment)

    # Past the expiry the holder pulls the funds back unilaterally.
    deployment.run(until=expiry + 1.0)
    reclaim = run_event(
        deployment, client.submit(names[0], "xshard_reclaim", {"xtx": xtx}, signer=alice)
    )
    assert reclaim.ok, reclaim.error
    assert escrow_status(deployment, 0, names[0], xtx)["status"] == "reclaimed"
    assert source.query("balance_of", {"account": alice.address.hex()}) == FUNDING
    assert_conserved(deployment)

    # A reclaim and a commit can never both move the value: the source
    # escrow is terminal, and the target's expectation expired with it —
    # the late commit decision is refused on BOTH legs, so no value is
    # minted against the reclaimed hold.
    reply = decide(
        deployment, client, alice, 0, (names[0], "xshard_settle", {"xtx": xtx}),
        xtx, "commit", votes,
    )
    assert reply.operation != Opcode.XSHARD_VOTE or not CrossShardVote.from_data(reply.data).ok
    assert escrow_status(deployment, 0, names[0], xtx)["status"] == "reclaimed"
    late_credit = decide(
        deployment, client, alice, 1, (names[1], "xshard_credit", {"xtx": xtx}),
        xtx, "commit", votes,
    )
    vote = CrossShardVote.from_data(late_credit.data)
    assert not vote.ok and "expired" in late_credit.data["error"]
    assert escrow_status(deployment, 1, names[1], xtx)["status"] == "expected"
    target = deployment.group(1).cells[0].contracts.get(names[1])
    assert target.query("balance_of", {"account": "0x" + "77" * 20}) == 0
    assert_conserved(deployment)


def test_settle_of_an_expired_hold_is_refused():
    deployment, alice, names, client = build()
    xtx = client.next_xtx()
    expiry = deployment.env.now + 5.0
    votes = []
    for group, call in (
        (0, (names[0], "xshard_reserve",
             {"xtx": xtx, "amount": 10, "expires_at": expiry})),
        (1, (names[1], "xshard_expect",
             {"xtx": xtx, "to": "0x" + "78" * 20, "amount": 10})),
    ):
        vote, _reply = prepare(deployment, client, alice, group, call, xtx)
        assert vote is not None and vote.ok
        votes.append(vote)

    deployment.run(until=expiry + 1.0)
    reply = decide(
        deployment, client, alice, 0, (names[0], "xshard_settle", {"xtx": xtx}),
        xtx, "commit", votes,
    )
    vote = CrossShardVote.from_data(reply.data)
    assert not vote.ok and "expired" in reply.data["error"]
    assert escrow_status(deployment, 0, names[0], xtx)["status"] == "held"
    assert_conserved(deployment)


# ----------------------------------------------------------------------
# Duplicate delivery
# ----------------------------------------------------------------------
def test_duplicate_prepare_is_refused_without_a_second_debit():
    deployment, alice, names, client = build()
    xtx = client.next_xtx()
    call = (names[0], "xshard_reserve", {"xtx": xtx, "amount": 10})
    vote, _reply = prepare(deployment, client, alice, 0, call, xtx)
    assert vote is not None and vote.ok

    again, reply = prepare(deployment, client, alice, 0, call, xtx)
    assert again is None
    assert reply.operation == Opcode.TX_ERROR
    assert "already prepared" in reply.data["error"]
    source = deployment.group(0).cells[0].contracts.get(names[0])
    assert source.query("balance_of", {"account": alice.address.hex()}) == FUNDING - 10
    assert_conserved(deployment)


def test_duplicate_commit_cannot_double_credit():
    deployment, alice, names, client = build()
    xtx = client.next_xtx()
    recipient = "0x" + "79" * 20
    votes = []
    for group, call in (
        (0, (names[0], "xshard_reserve", {"xtx": xtx, "amount": 15})),
        (1, (names[1], "xshard_expect",
             {"xtx": xtx, "to": recipient, "amount": 15})),
    ):
        vote, _reply = prepare(deployment, client, alice, group, call, xtx)
        assert vote is not None and vote.ok
        votes.append(vote)
    for group, call in (
        (0, (names[0], "xshard_settle", {"xtx": xtx})),
        (1, (names[1], "xshard_credit", {"xtx": xtx})),
    ):
        reply = decide(deployment, client, alice, group, call, xtx, "commit", votes)
        assert CrossShardVote.from_data(reply.data).ok

    target = deployment.group(1).cells[0].contracts.get(names[1])
    assert target.query("balance_of", {"account": recipient}) == 15
    assert_conserved(deployment)

    # The coordinator re-delivers the commit to the target.
    reply = decide(
        deployment, client, alice, 1, (names[1], "xshard_credit", {"xtx": xtx}),
        xtx, "commit", votes,
    )
    assert reply.operation == Opcode.TX_ERROR
    assert "already committed" in reply.data["error"]
    assert target.query("balance_of", {"account": recipient}) == 15
    assert_conserved(deployment)


def test_redelivered_gateway_vote_is_ignored_by_the_coordinator():
    deployment, alice, names, client = build()
    xtx = client.next_xtx()
    vote, reply = prepare(
        deployment, client, alice, 0,
        (names[0], "xshard_reserve", {"xtx": xtx, "amount": 5}), xtx,
    )
    assert vote is not None and vote.ok
    # Re-deliver the very same signed vote envelope to the client's node:
    # its request is no longer pending at the endpoint, so the duplicate is
    # dropped on the floor rather than resolving anything twice.
    inner_client = client.clients[0]
    before = dict(inner_client.endpoint._pending)
    inner_client._on_message(
        deployment.group(0).cells[0].node_name, reply, reply.byte_size()
    )
    assert inner_client.endpoint._pending == before
    assert reply.payload.reply_to not in before
    assert_conserved(deployment)


# ----------------------------------------------------------------------
# The coordinator path arms the expiry valve end to end
# ----------------------------------------------------------------------
def test_transfer_cross_hold_expiry_arms_both_escrow_legs():
    from repro.client.sharded import ShardRoutingError, ShardedFastMoneyClient

    deployment, alice, names, client = build()
    app = ShardedFastMoneyClient(client, base_name=BASE)
    with pytest.raises(ShardRoutingError, match="forwarding deadline"):
        app.transfer_cross(0, 1, "0x" + "7b" * 20, 5, signer=alice, hold_expiry=1.0)

    armed_at = deployment.env.now
    result = run_event(
        deployment,
        app.transfer_cross(0, 1, "0x" + "7b" * 20, 5, signer=alice, hold_expiry=60.0),
    )
    assert result.ok and result.decision == "commit", result.error
    # Both legs recorded the same expiry before settling/crediting.
    source = escrow_status(deployment, 0, names[0], result.xtx)
    target = escrow_status(deployment, 1, names[1], result.xtx)
    assert source["status"] == "settled" and target["status"] == "credited"
    assert_conserved(deployment)
    # A second armed transfer left undecided is reclaimable: covered by
    # test_abandoned_hold_is_reclaimed_after_expiry; here we pin that the
    # coordinator wrote the expiry the contracts will honour.
    xtx2 = client.next_xtx()
    vote, _reply = prepare(
        deployment, client, alice, 0,
        (names[0], "xshard_reserve",
         {"xtx": xtx2, "amount": 5, "expires_at": armed_at + 60.0}),
        xtx2,
    )
    assert vote is not None and vote.ok
    record = escrow_status(deployment, 0, names[0], xtx2)
    assert record["status"] == "held" and record["expires_at"] == armed_at + 60.0


# ----------------------------------------------------------------------
# Half-driven commit: value in transit, then delivered
# ----------------------------------------------------------------------
def test_half_driven_commit_is_in_transit_not_lost():
    deployment, alice, names, client = build()
    xtx = client.next_xtx()
    recipient = "0x" + "7a" * 20
    votes = []
    for group, call in (
        (0, (names[0], "xshard_reserve", {"xtx": xtx, "amount": 20})),
        (1, (names[1], "xshard_expect",
             {"xtx": xtx, "to": recipient, "amount": 20})),
    ):
        vote, _reply = prepare(deployment, client, alice, group, call, xtx)
        assert vote is not None and vote.ok
        votes.append(vote)

    # The coordinator settles the source… and crashes before the credit.
    reply = decide(
        deployment, client, alice, 0, (names[0], "xshard_settle", {"xtx": xtx}),
        xtx, "commit", votes,
    )
    assert CrossShardVote.from_data(reply.data).ok
    assert escrow_status(deployment, 0, names[0], xtx)["status"] == "settled"
    assert escrow_status(deployment, 1, names[1], xtx)["status"] == "expected"
    # Value is in transit — conserved, and visible as such.
    assert_conserved(deployment, expect_in_transit=20)

    # Anyone holding the certificate can deliver the credit later.
    reply = decide(
        deployment, client, alice, 1, (names[1], "xshard_credit", {"xtx": xtx}),
        xtx, "commit", votes,
    )
    assert CrossShardVote.from_data(reply.data).ok
    target = deployment.group(1).cells[0].contracts.get(names[1])
    assert target.query("balance_of", {"account": recipient}) == 20
    assert_conserved(deployment, expect_in_transit=0)


# ----------------------------------------------------------------------
# The voucher fast path: pure-increment destinations skip 2PC
# ----------------------------------------------------------------------
def send_voucher(deployment, client, alice, group, body):
    """Send one XSHARD_VOUCHER leg and return the reply envelope."""
    _request, waiter = client.clients[group].request(
        Opcode.XSHARD_VOUCHER, body.to_data(), signer=alice
    )
    return run_event(deployment, waiter)


def mint_voucher(deployment, client, alice, names, xtx, amount, recipient,
                 expires_at, reclaim_after, target_contract=None):
    """Drive one mint leg by hand and return the voucher, rebuilt from the mint call."""
    from repro.core.replies import VoucherReply
    from repro.messages.xshard import CrossShardVoucher, CrossShardVoucherTransfer

    inner = client._sign_call(
        alice, 0,
        (names[0], "xshard_voucher_mint",
         {"xtx": xtx, "to": recipient, "amount": amount,
          "expires_at": expires_at, "reclaim_after": reclaim_after}),
    )
    target_contract = target_contract or names[1]
    body = CrossShardVoucherTransfer(
        phase="mint", group=0, transaction=inner.to_wire(),
        target_group=1, target_contract=target_contract,
    )
    reply = send_voucher(deployment, client, alice, 0, body)
    assert reply.operation == Opcode.XSHARD_VOUCHER, reply.data
    minted = VoucherReply.from_data(reply.data)
    assert minted.phase == "minted" and set(reply.data) == {"phase", "signature", "receipt"}
    return CrossShardVoucher(
        issuer=reply.sender, xtx=xtx, source_group=0, target_group=1, contract=target_contract,
        recipient=recipient, amount=amount, expires_at=float(expires_at),
        signature=minted.signature, scheme=reply.scheme,
    )


def redeem_voucher(deployment, client, alice, names, xtx, voucher, **spent):
    """Drive one redeem leg spending what the voucher vouches for (or ``spent``)."""
    from repro.messages.xshard import CompactVoucher, CrossShardVoucherTransfer

    inner = client._sign_call(
        alice, 1,
        (names[1], "xshard_voucher_redeem",
         {"xtx": xtx, "to": voucher.recipient, "amount": voucher.amount,
          "expires_at": voucher.expires_at, **spent}),
    )
    body = CrossShardVoucherTransfer(
        phase="redeem", group=1, transaction=inner.to_wire(),
        voucher=CompactVoucher.of(voucher, alice.scheme),
    )
    return send_voucher(deployment, client, alice, 1, body)


def test_voucher_fast_path_commits_as_a_pure_increment():
    from repro.client.sharded import ShardedFastMoneyClient

    deployment, alice, names, client = build()
    app = ShardedFastMoneyClient(client, base_name=BASE)
    recipient = "0x" + "7c" * 20
    result = run_event(
        deployment,
        app.transfer_cross(0, 1, recipient, 15, signer=alice, fast_path=True),
    )
    assert result.ok and result.decision == "commit", result.error
    assert not result.in_transit
    # One message per gateway: the mint is the only "prepare", the
    # redeem the only "ack" — no vote round ever ran.
    assert set(result.prepare) == {0} and set(result.acks) == {1}
    assert escrow_status(deployment, 0, names[0], result.xtx)["status"] == "voucher"
    assert escrow_status(deployment, 1, names[1], result.xtx)["status"] == "redeemed"
    target = deployment.group(1).cells[0].contracts.get(names[1])
    assert target.query("balance_of", {"account": recipient}) == 15
    assert_conserved(deployment)


def test_fast_path_classifier_only_accepts_provable_pure_increments():
    """An unprovable destination footprint falls back to full 2PC."""
    deployment, alice, names, client = build()
    recipient = "0x" + "7c" * 20
    redeem = (
        names[1], "xshard_voucher_redeem",
        {"xtx": "0x" + "ab" * 8, "to": recipient, "amount": 5,
         "expires_at": deployment.env.now + 50.0},
    )
    assert client.destination_is_pure_increment(1, redeem, sender=alice.address)
    # A plain transfer reads and writes the sender's balance — a shared
    # key — so it can never take the fast path.
    assert not client.destination_is_pure_increment(
        1, (names[1], "transfer", {"to": recipient, "amount": 5}),
        sender=alice.address,
    )
    # Without an xtx the per-transaction keys cannot be told apart from
    # shared state, and a routing mismatch is never provable either.
    no_xtx = (names[1], "xshard_voucher_redeem",
              {"to": recipient, "amount": 5, "expires_at": 50.0})
    assert not client.destination_is_pure_increment(1, no_xtx, sender=alice.address)
    assert not client.destination_is_pure_increment(0, redeem, sender=alice.address)


def test_duplicate_voucher_redeem_is_a_metered_no_op():
    deployment, alice, names, client = build()
    recipient = "0x" + "7d" * 20
    xtx = client.next_xtx()
    expires = deployment.env.now + 50.0
    voucher = mint_voucher(
        deployment, client, alice, names, xtx, 10, recipient, expires, expires + 5.0
    )
    reply = redeem_voucher(deployment, client, alice, names, xtx, voucher)
    assert reply.operation == Opcode.XSHARD_VOUCHER
    assert reply.data["phase"] == "redeemed" and "duplicate" not in reply.data
    # The network redelivers the redeem: the redeemed-voucher registry
    # answers it without touching the pipeline, and counts it.
    dup = redeem_voucher(deployment, client, alice, names, xtx, voucher)
    assert dup.operation == Opcode.XSHARD_VOUCHER
    assert dup.data["phase"] == "redeemed" and dup.data["duplicate"] is True
    gateway = deployment.group(1).cells[0]
    assert gateway.metrics.counter(
        f"{gateway.node_name}/xshard_voucher_duplicates"
    ) == 1
    target = gateway.contracts.get(names[1])
    assert target.query("balance_of", {"account": recipient}) == 10
    assert_conserved(deployment)


def test_expired_voucher_refuses_redeem_and_the_source_reclaims():
    deployment, alice, names, client = build()
    recipient = "0x" + "7e" * 20
    xtx = client.next_xtx()
    expires = deployment.env.now + 5.0
    voucher = mint_voucher(
        deployment, client, alice, names, xtx, 30, recipient, expires, expires + 2.0
    )
    # The debit already happened: the value is in transit on the voucher.
    assert_conserved(deployment, expect_in_transit=30)

    # The voucher sits in a pocket past its deadline; the redeem refuses.
    deployment.run(until=expires + 0.5)
    reply = redeem_voucher(deployment, client, alice, names, xtx, voucher)
    assert reply.operation == Opcode.TX_ERROR
    assert "expired; the source reclaims it" in reply.data["error"]

    # Redeem and reclaim deadlines are disjoint: not reclaimable yet.
    early = run_event(
        deployment,
        client.submit(names[0], "xshard_voucher_reclaim", {"xtx": xtx}, signer=alice),
    )
    assert not early.ok and "not reclaimable yet" in early.error

    deployment.run(until=expires + 3.0)
    reclaimed = run_event(
        deployment,
        client.submit(names[0], "xshard_voucher_reclaim", {"xtx": xtx}, signer=alice),
    )
    assert reclaimed.ok, reclaimed.error
    source = deployment.group(0).cells[0].contracts.get(names[0])
    assert source.query("balance_of", {"account": alice.address.hex()}) == FUNDING
    assert escrow_status(deployment, 0, names[0], xtx)["status"] == "voucher_reclaimed"
    assert_conserved(deployment, expect_in_transit=0)


def test_a_garbled_voucher_is_refused_at_ingress():
    """A redeem body parses its voucher: a garbled one never reaches the gateway."""
    from repro.messages.xshard import CompactVoucher, CrossShardVoucherTransfer

    deployment, alice, names, client = build()
    recipient = "0x" + "7e" * 20
    xtx = client.next_xtx()
    expires = deployment.env.now + 50.0
    voucher = mint_voucher(
        deployment, client, alice, names, xtx, 20, recipient, expires, expires + 5.0
    )
    inner = client._sign_call(
        alice, 1,
        (names[1], "xshard_voucher_redeem",
         {"xtx": xtx, "to": recipient, "amount": 20, "expires_at": expires}),
    )
    data = CrossShardVoucherTransfer(
        phase="redeem", group=1, transaction=inner.to_wire(),
        voucher=CompactVoucher.of(voucher, alice.scheme),
    ).to_data()
    data["voucher"]["source_group"] = "0"  # a number as text
    _request, waiter = client.clients[1].request(Opcode.XSHARD_VOUCHER, data, signer=alice)
    reply = run_event(deployment, waiter)
    assert reply.operation == Opcode.TX_ERROR
    assert reply.data["error"].startswith(
        f"malformed {CrossShardVoucherTransfer.WHAT}: voucher: "
    ), reply.data["error"]
    gateway = deployment.group(1).cells[0]
    assert gateway.metrics.counter(f"{gateway.node_name}/malformed_messages") == 1
    assert gateway.metrics.counter(f"{gateway.node_name}/xshard_voucher_refusals") == 0
    assert escrow_status(deployment, 0, names[0], xtx)["status"] == "voucher"
    assert_conserved(deployment, expect_in_transit=20)


def test_forged_voucher_is_refused_before_any_credit():
    from dataclasses import replace

    deployment, alice, names, client = build()
    recipient = "0x" + "7f" * 20
    xtx = client.next_xtx()
    expires = deployment.env.now + 50.0
    voucher = mint_voucher(
        deployment, client, alice, names, xtx, 20, recipient, expires, expires + 5.0
    )
    forged = replace(
        voucher, signature=bytes(b ^ 0xFF for b in voucher.signature)
    )
    reply = redeem_voucher(deployment, client, alice, names, xtx, forged)
    assert reply.operation == Opcode.TX_ERROR
    assert reply.data["error"] == "voucher carries an invalid issuer signature"
    gateway = deployment.group(1).cells[0]
    assert gateway.metrics.counter(
        f"{gateway.node_name}/xshard_voucher_refusals"
    ) == 1
    target = gateway.contracts.get(names[1])
    assert target.query("balance_of", {"account": recipient}) == 0
    # The directory check refused it before any credit: the debit stands
    # and the value is visibly in transit, not minted and not lost.
    assert escrow_status(deployment, 0, names[0], xtx)["status"] == "voucher"
    assert_conserved(deployment, expect_in_transit=20)

    # The genuine voucher still redeems — the refusal burned nothing.
    ok_reply = redeem_voucher(deployment, client, alice, names, xtx, voucher)
    assert ok_reply.operation == Opcode.XSHARD_VOUCHER
    assert ok_reply.data["phase"] == "redeemed" and "duplicate" not in ok_reply.data
    assert target.query("balance_of", {"account": recipient}) == 20
    assert_conserved(deployment, expect_in_transit=0)


# ----------------------------------------------------------------------
# A dropped commit ack is in-transit value, not a failed transfer
# ----------------------------------------------------------------------
def test_dropped_commit_ack_reports_in_transit_with_the_certificate():
    from repro.client.sharded import ShardedFastMoneyClient
    from repro.client.workload import WorkloadReport

    deployment, alice, names, client = build()
    app = ShardedFastMoneyClient(client, base_name=BASE)
    recipient = "0x" + "7b" * 20

    original = client._send_phase

    def drop_target_commit(signer, group, data, opcode):
        if opcode == Opcode.XSHARD_COMMIT and group == 1:
            # The decision to the target is lost in flight: never
            # delivered, never acknowledged before the deadline.
            return client.env.timeout(deployment.config.forwarding_deadline)
        return original(signer, group, data, opcode)

    client._send_phase = drop_target_commit
    result = run_event(
        deployment, app.transfer_cross(0, 1, recipient, 20, signer=alice)
    )
    client._send_phase = original

    # The commit was *decided* — the certificate proves it — so the
    # outcome is the distinct in-transit class, not a generic failure.
    assert result.decision == "commit"
    assert not result.ok and result.in_transit
    assert "value is in transit under the commit certificate" in result.error
    assert "group 1" in result.error
    votes = [outcome.vote for outcome in result.prepare.values()]
    assert all(vote is not None and vote.ok for vote in votes)
    assert escrow_status(deployment, 0, names[0], result.xtx)["status"] == "settled"
    assert escrow_status(deployment, 1, names[1], result.xtx)["status"] == "expected"
    assert_conserved(deployment, expect_in_transit=20)

    # Workload accounting files it as in-transit, never as a failure.
    report = WorkloadReport(
        label="in-transit", consortium_size=2, cross_results=[result]
    )
    assert report.cross_failures == [] and report.cross_in_transit == [result]
    assert report.failure_count == 0

    # Anyone holding the certificate delivers the credit later.
    reply = decide(
        deployment, client, alice, 1,
        (names[1], "xshard_credit", {"xtx": result.xtx}),
        result.xtx, "commit", votes,
    )
    assert CrossShardVote.from_data(reply.data).ok
    target = deployment.group(1).cells[0].contracts.get(names[1])
    assert target.query("balance_of", {"account": recipient}) == 20
    assert_conserved(deployment, expect_in_transit=0)


# ----------------------------------------------------------------------
# A gateway that dies holding a prepare: the deadline ends the wait
# ----------------------------------------------------------------------
def test_a_gateway_crashing_on_the_prepare_leaves_no_request_pending():
    from repro.client.sharded import GATEWAY_SILENT, ShardedFastMoneyClient

    deployment, alice, names, client = build()
    app = ShardedFastMoneyClient(client, base_name=BASE)

    def crash_on_receipt(_src_node, _envelope, _body):
        deployment.crash_cell(1, 0)

    deployment.group(1).cells[0]._serve_xshard = crash_on_receipt
    result = run_event(deployment, app.transfer_cross(0, 1, "0x" + "7c" * 20, 20, signer=alice))

    assert result.decision == "abort" and not result.ok
    assert result.prepare[1].error == GATEWAY_SILENT
    assert escrow_status(deployment, 0, names[0], result.xtx)["status"] == "held"
    # Every phase request was answered or ran into its deadline: none is
    # still waited for, on the per-group clients or the gateway clients.
    clients = client.clients + [gateway for gateway in client._gateway_clients if gateway]
    assert [dict(each.endpoint._pending) for each in clients] == [{} for _ in clients]
    assert_conserved(deployment)


# ----------------------------------------------------------------------
# Skew-padded destination deadlines heal the expiry asymmetry
# ----------------------------------------------------------------------
def test_skew_pad_heals_the_asymmetric_expiry_window():
    """Deadlines are checked at delivery: under destination skew a credit
    can arrive after a deadline the settle met, stranding the value with
    a settled source and an expired expectation.  The destination leg's
    padded deadline (satellite: ``skew_pad``) closes exactly that window;
    an unpadded leg reproduces the old asymmetry."""
    deployment, alice, names, client = build()
    recipient = "0x" + "79" * 20
    skew, pad = 3.0, 10.0
    expires = deployment.env.now + 30.0

    def prepare_pair(xtx, dest_pad):
        votes = []
        for group, call in (
            (0, (names[0], "xshard_reserve",
                 {"xtx": xtx, "amount": 10, "expires_at": expires})),
            (1, (names[1], "xshard_expect",
                 {"xtx": xtx, "to": recipient, "amount": 10,
                  "expires_at": expires + dest_pad})),
        ):
            vote, _reply = prepare(deployment, client, alice, group, call, xtx)
            assert vote is not None and vote.ok
            votes.append(vote)
        return votes

    xtx_bare = client.next_xtx()
    votes_bare = prepare_pair(xtx_bare, dest_pad=0.0)
    xtx_padded = client.next_xtx()
    votes_padded = prepare_pair(xtx_padded, dest_pad=pad)

    # After both holds are armed, the destination gateway's scheduler
    # falls behind by more than the source/destination latency gap.
    gateway = deployment.group(1).cells[0]
    deployment.network.set_node_skew(gateway.node_name, skew)

    # The coordinator decides commit just inside the source deadline:
    # both settles land in time, both credits are delivered late.
    deployment.run(until=expires - 1.0)
    for xtx, votes in ((xtx_bare, votes_bare), (xtx_padded, votes_padded)):
        reply = decide(
            deployment, client, alice, 0,
            (names[0], "xshard_settle", {"xtx": xtx}), xtx, "commit", votes,
        )
        assert CrossShardVote.from_data(reply.data).ok
        assert deployment.env.now < expires

    # The padded leg absorbs the late delivery and credits.
    reply = decide(
        deployment, client, alice, 1,
        (names[1], "xshard_credit", {"xtx": xtx_padded}),
        xtx_padded, "commit", votes_padded,
    )
    assert CrossShardVote.from_data(reply.data).ok
    assert escrow_status(deployment, 1, names[1], xtx_padded)["status"] == "credited"

    # The unpadded leg reproduces the bug: source settled, credit
    # refused as expired — the value is stranded in transit.
    reply = decide(
        deployment, client, alice, 1,
        (names[1], "xshard_credit", {"xtx": xtx_bare}),
        xtx_bare, "commit", votes_bare,
    )
    vote = CrossShardVote.from_data(reply.data)
    assert not vote.ok and "expired" in reply.data["error"]
    assert escrow_status(deployment, 0, names[0], xtx_bare)["status"] == "settled"
    assert escrow_status(deployment, 1, names[1], xtx_bare)["status"] == "expected"
    assert_conserved(deployment, expect_in_transit=10)
    deployment.network.set_node_skew(gateway.node_name, 0.0)


def test_transfer_cross_pads_the_destination_deadline_by_skew_pad():
    """The coordinator arms the destination leg ``skew_pad`` beyond the
    source leg, observable on the escrow record while a commit is lost."""
    from repro.client.sharded import ShardedFastMoneyClient

    deployment, alice, names, client = build()
    app = ShardedFastMoneyClient(client, base_name=BASE)
    original = client._send_phase

    def drop_target_commit(signer, group, data, opcode):
        if opcode == Opcode.XSHARD_COMMIT and group == 1:
            return client.env.timeout(deployment.config.forwarding_deadline)
        return original(signer, group, data, opcode)

    client._send_phase = drop_target_commit
    armed_at = deployment.env.now
    result = run_event(
        deployment,
        app.transfer_cross(0, 1, "0x" + "7b" * 20, 5, signer=alice,
                           hold_expiry=60.0, skew_pad=2.5),
    )
    client._send_phase = original
    assert result.in_transit and result.decision == "commit"
    source = escrow_status(deployment, 0, names[0], result.xtx)
    target = escrow_status(deployment, 1, names[1], result.xtx)
    assert source["status"] == "settled"
    assert target["status"] == "expected"
    # The destination expectation still carries its deadline: the source
    # leg's expiry plus the pad (the settled record sheds its own).
    assert target["expires_at"] == pytest.approx(armed_at + 60.0 + 2.5)
    assert_conserved(deployment, expect_in_transit=5)


def test_async_fast_path_commits_before_the_redeem_lands():
    """``await_redeem=False`` returns once the voucher is secured; the
    redeem delivers in the background and resolves ``result.redeem``."""
    from repro.client.sharded import ShardedFastMoneyClient

    deployment, alice, names, client = build()
    app = ShardedFastMoneyClient(client, base_name=BASE)
    recipient = "0x" + "7d" * 20
    result = run_event(
        deployment,
        app.transfer_cross(0, 1, recipient, 15, signer=alice,
                           fast_path=True, await_redeem=False),
    )
    assert result.ok and result.decision == "commit", result.error
    assert result.redeem is not None
    # The early commit point: the debit is escrowed under the voucher,
    # but no acknowledgement from the destination exists yet.
    assert set(result.prepare) == {0} and result.acks == {}
    assert escrow_status(deployment, 0, names[0], result.xtx)["status"] == "voucher"
    final = run_event(deployment, result.redeem)
    assert final.ok and final.decision == "commit", final.error
    assert set(final.acks) == {1}
    assert escrow_status(deployment, 1, names[1], final.xtx)["status"] == "redeemed"
    target = deployment.group(1).cells[0].contracts.get(names[1])
    assert target.query("balance_of", {"account": recipient}) == 15
    assert_conserved(deployment)


def test_async_fast_path_refuses_a_forged_voucher_before_promising():
    """The client-side directory check is load-bearing in async mode: a
    lying source gateway's forged voucher must never earn the early ok."""
    from repro.client.sharded import ShardedFastMoneyClient

    deployment, alice, names, client = build()
    app = ShardedFastMoneyClient(client, base_name=BASE)
    forger = deployment.group(0).cells[GATEWAY_CELL_INDEX]
    forger.fault.lying_gateway = "voucher"
    result = run_event(
        deployment,
        app.transfer_cross(0, 1, "0x" + "7e" * 20, 15, signer=alice,
                           fast_path=True, await_redeem=False),
    )
    forger.fault.lying_gateway = None
    assert not result.ok and result.decision == "abort"
    assert result.in_transit and result.redeem is None
    assert "directory verification" in (result.error or "")
    counter = forger.metrics.counter(f"{forger.node_name}/xshard_vouchers_forged")
    assert counter == 1
    # The debit really happened; the value sits in transit until the
    # source reclaims it after the voucher deadline.
    assert escrow_status(deployment, 0, names[0], result.xtx)["status"] == "voucher"
    assert_conserved(deployment, expect_in_transit=15)


# ----------------------------------------------------------------------
# A voucher travels as its signature: each reader rebuilds what was signed
# ----------------------------------------------------------------------
MISMATCHED_REDEEMS = {
    "amount": dict(spent={"amount": 21}),
    "recipient": dict(spent={"to": "0x" + "7a" * 20}),
    "expiry": dict(spent={"expires_at": 1_000.0}),
    "contract": dict(target_contract="elsewhere@s1"),
    "issuer outside the source group": dict(issuer_group=1),
}


@pytest.mark.parametrize("case", MISMATCHED_REDEEMS.values(), ids=MISMATCHED_REDEEMS)
def test_a_redeem_other_than_what_the_issuer_signed_is_refused_before_any_credit(case):
    """The destination completes the voucher from the redeem: one that spends
    another amount, recipient, expiry or contract, or names an issuer outside
    the source group, is a voucher nobody signed."""
    from dataclasses import replace

    deployment, alice, names, client = build()
    recipient = "0x" + "7b" * 20
    xtx = client.next_xtx()
    expires = deployment.env.now + 50.0
    voucher = mint_voucher(
        deployment, client, alice, names, xtx, 20, recipient, expires, expires + 5.0,
        target_contract=case.get("target_contract"),
    )
    if "issuer_group" in case:
        voucher = replace(
            voucher, issuer=deployment.group(case["issuer_group"]).cells[GATEWAY_CELL_INDEX].address
        )
    reply = redeem_voucher(deployment, client, alice, names, xtx, voucher, **case.get("spent", {}))
    assert reply.operation == Opcode.TX_ERROR
    expected = (
        "voucher issuer is not a known gateway cell of group 0" if "issuer_group" in case
        else "voucher carries an invalid issuer signature"
    )
    assert reply.data["error"] == expected
    gateway = deployment.group(1).cells[0]
    assert gateway.metrics.counter(f"{gateway.node_name}/xshard_voucher_refusals") == 1
    assert len(gateway.ledger) == 0  # refused before the credit was even admitted
    assert escrow_status(deployment, 0, names[0], xtx)["status"] == "voucher"
    assert_conserved(deployment, expect_in_transit=20)


def _rewriting_minted_replies(gateway, rewrite):
    """Make ``gateway`` pass the data of each minted ``XSHARD_VOUCHER`` reply through ``rewrite``."""
    honest = gateway.reply

    def reply(dst_node, request, operation, data):
        if operation is Opcode.XSHARD_VOUCHER and data.get("phase") == "minted":
            data = rewrite(dict(data))
        honest(dst_node, request, operation, data)

    gateway.reply = reply


def test_async_fast_path_refuses_a_voucher_signed_for_another_credit():
    """The client rebuilds the voucher from its own mint call: a gateway that
    signed another amount gives a signature that fails before the early ok."""
    from repro.client.sharded import ShardedFastMoneyClient
    from repro.encoding import base64url
    from repro.messages.xshard import CrossShardVoucher

    deployment, alice, names, client = build()
    app = ShardedFastMoneyClient(client, base_name=BASE)
    gateway = deployment.group(0).cells[GATEWAY_CELL_INDEX]
    recipient = "0x" + "7e" * 20

    def signed_for_more(data):
        terms = list(gateway.ledger)[-1].envelope.data["args"]
        voucher = CrossShardVoucher.create(
            gateway.signer, terms["xtx"], 0, 1, names[1], recipient, terms["amount"] + 1,
            float(terms["expires_at"]),
        )
        return {**data, "signature": base64url.encode(voucher.signature)}

    _rewriting_minted_replies(gateway, signed_for_more)
    result = run_event(
        deployment,
        app.transfer_cross(0, 1, recipient, 15, signer=alice,
                           fast_path=True, await_redeem=False),
    )
    assert not result.ok and result.decision == "abort"
    assert result.in_transit and result.redeem is None
    assert "voucher carries an invalid issuer signature" in (result.error or "")
    assert escrow_status(deployment, 0, names[0], result.xtx)["status"] == "voucher"
    assert_conserved(deployment, expect_in_transit=15)


def test_a_minted_reply_whose_receipt_states_another_result_is_refused():
    """The coordinator checks the inner receipt of a voucher leg as a direct
    submission's: a gateway that rewrites the mint's result fails the phase."""
    from repro.client.sharded import ShardedFastMoneyClient

    deployment, alice, names, client = build()
    app = ShardedFastMoneyClient(client, base_name=BASE)
    gateway = deployment.group(0).cells[GATEWAY_CELL_INDEX]
    _rewriting_minted_replies(
        gateway, lambda data: {**data, "receipt": {**data["receipt"], "result": {"lie": True}}}
    )
    result = run_event(
        deployment,
        app.transfer_cross(0, 1, "0x" + "7c" * 20, 15, signer=alice, fast_path=True),
    )
    assert not result.ok and result.decision == "abort" and result.in_transit
    assert result.error.startswith("voucher mint refused (inner receipt failed verification)")
    assert result.prepare[0].receipt is None and not result.prepare[0].ok
    asker = client._gateway_client(0)
    assert deployment.metrics.counters.get(f"{asker.node_name}/refused_receipts") == 1
    # Nothing was redeemed on the strength of the lie; the debit reclaims later.
    assert escrow_status(deployment, 1, names[1], result.xtx) is None
    assert_conserved(deployment, expect_in_transit=15)
