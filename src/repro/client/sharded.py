"""Client-side shard routing and the cross-shard 2PC coordinator.

A :class:`ShardedClient` fronts a whole
:class:`~repro.core.sharding.ShardedDeployment`: it holds one ordinary
:class:`~repro.client.client.BlockumulusClient` per cell group (all
sharing one identity) and routes every call to the group that owns the
target contract — or, for the namespace-sharded CAS, the blob digest —
through the deployment's :class:`~repro.core.sharding.ShardMap`.  Routing
is total and explicit: a contract no group owns raises
:class:`ShardRoutingError` instead of silently hitting the wrong group.

For the rare transaction whose access plan spans groups the client is the
two-phase-commit *coordinator* (see :mod:`repro.messages.xshard`):

1. **span detection** — each sub-call's pre-execution
   :class:`~repro.core.lanes.AccessFootprint` (derived from the target
   contract's declared access plan) is mapped through the shard map; one
   group means no 2PC is needed.
2. **prepare** — the client signs each group's inner *hold* transaction
   plus an ``XSHARD_PREPARE`` around it and collects the gateways'
   signed votes against the forwarding deadline.
3. **decide** — all-yes assembles the votes into a commit certificate and
   sends ``XSHARD_COMMIT`` everywhere; anything else sends
   ``XSHARD_ABORT`` to the groups that prepared, rolling their holds
   back.  Gateways re-verify the certificate against the shard
   directory, so a faulty coordinator cannot commit one side only.

The coordinator runs as a simulation process; :meth:`ShardedClient.submit_cross`
returns the process, whose value is a :class:`CrossShardResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Union

from ..contracts.community.fastmoney import FastMoney
from ..core.lanes import AccessFootprint
from ..core.receipts import AggregatedReceipt
from ..core.replies import ReplyError, VoteReply, VoucherReply
from ..core.routes import read_reply
from ..core.sharding import (
    GATEWAY_CELL_INDEX,
    NAMESPACE_SHARDED_CONTRACTS,
    ShardedDeployment,
    ShardingError,
    _stable_shard,
)
from ..crypto.hashing import fast_hash
from ..crypto.keys import Address
from ..messages.envelope import Envelope, NonceFactory
from ..messages.opcodes import Opcode
from ..messages.signer import Signer
from ..messages.xshard import (
    CompactVoucher,
    CrossShardDecision,
    CrossShardPrepare,
    CrossShardVote,
    CrossShardVoucherTransfer,
)
from ..sim.events import Event
from .apps import FastMoneyClient
from .client import BlockumulusClient, ClientError


class ShardRoutingError(ClientError):
    """Raised when a call cannot be routed to exactly one owning group."""


#: One invocation: (contract, method, args).
Call = tuple[str, str, dict[str, Any]]

#: Default padding (seconds) added to delivery-side escrow deadlines.
#: Clock skew in this system is a delivery delay (the network adds the
#: two endpoints' skews to a message's latency), so a deadline computed
#: at the client can pass *in flight* on the slower leg while the other
#: leg settles in time.  Padding the destination-side deadline by the
#: configured skew bound keeps the two legs' deadlines effectively
#: symmetric; the chaos engine samples per-node skews up to 0.5s, so the
#: default covers both endpoints of one delivery.
DEFAULT_SKEW_PAD = 1.0

#: What a phase outcome says of a gateway whose reply never came.
GATEWAY_SILENT = "gateway unreachable or timed out"


@dataclass(frozen=True)
class ParticipantPlan:
    """One group's share of a cross-shard transaction.

    ``prepare`` is the hold, ``commit`` finalizes it, ``abort`` rolls it
    back — each an ordinary method call on a contract the group owns
    (e.g. the FastMoney escrow methods).
    """

    group: int
    prepare: Call
    commit: Call
    abort: Call


@dataclass
class PhaseOutcome:
    """What one gateway answered for one phase."""

    ok: bool
    vote: Optional[CrossShardVote] = None
    #: The inner transaction's, rebuilt from what the coordinator signed.
    receipt: Optional[AggregatedReceipt] = None
    error: Optional[str] = None


@dataclass
class CrossShardResult:
    """What the coordinator learned about one cross-shard transaction.

    ``ok=False`` alone does not mean the transfer failed: when
    ``in_transit`` is set the decision was *provably reached* (a commit
    certificate exists, or a voucher was minted) but some leg's
    acknowledgement never arrived — the value moved, or will move, and
    callers must not double-count it as a failure.  ``prepare`` carries
    the signed votes (the certificate) so an in-transit decision can be
    re-driven.
    """

    ok: bool
    xtx: str
    decision: str                      # "commit" | "abort"
    submitted_at: float
    completed_at: float
    prepare: dict[int, PhaseOutcome] = field(default_factory=dict)
    acks: dict[int, PhaseOutcome] = field(default_factory=dict)
    error: Optional[str] = None
    in_transit: bool = False
    #: Asynchronous fast path only (``await_redeem=False``): the still-
    #: running redeem delivery, resolving to the final CrossShardResult.
    redeem: Optional[Event] = field(default=None, compare=False, repr=False)

    @property
    def latency(self) -> float:
        """Client-observed end-to-end delay (seconds of simulated time)."""
        return self.completed_at - self.submitted_at


class ShardedClient:
    """A client machine spanning every cell group of a sharded deployment."""

    _counter = 0

    def __init__(
        self,
        deployment: ShardedDeployment,
        signer: Optional[Signer] = None,
        service_cell_index: int = 0,
        node_basename: Optional[str] = None,
    ) -> None:
        self.deployment = deployment
        self.env = deployment.env
        primary = deployment.group(0)
        # The default identity seed must be deterministic (a process-wide
        # counter, like BlockumulusClient's), never an object id — seeded
        # runs must mint identical client addresses run over run.
        type(self)._counter += 1
        self.signer = signer or primary.make_client_signer(
            f"sharded-client/{node_basename or type(self)._counter}"
        )
        #: The identity's one nonce sequence, which every per-group node
        #: draws from: one (sender, nonce) pair signs one request.
        self.nonces = NonceFactory(self.signer.address)
        #: One per-group client, all speaking with this client's identity.
        self.clients: list[BlockumulusClient] = [
            BlockumulusClient(
                group,
                signer=self.signer,
                service_cell_index=service_cell_index,
                node_name=(
                    f"{node_basename}@g{group.index}" if node_basename is not None else None
                ),
                nonces=self.nonces,
            )
            for group in deployment.groups
        ]
        self._node_basename = node_basename
        self._service_cell_index = service_cell_index
        #: Lazily created per-group clients bound to each group's
        #: designated gateway cell — XSHARD phases must go there, while
        #: ordinary submits/queries may use any service cell.
        self._gateway_clients: list[Optional[BlockumulusClient]] = [None] * len(
            deployment.groups
        )
        self._xtx_counter = 0

    @property
    def address(self) -> Address:
        """The client's Blockumulus address (one identity on every group)."""
        return self.signer.address

    def client_for(self, group: int) -> BlockumulusClient:
        """The per-group client attached to cell group ``group``."""
        try:
            return self.clients[group]
        except IndexError:
            raise ShardRoutingError(f"no cell group with index {group}") from None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, contract: str, method: str, args: dict[str, Any]) -> int:
        """Owning group of one call; unknown contracts raise cleanly."""
        if (
            contract not in NAMESPACE_SHARDED_CONTRACTS
            and contract not in self.deployment.contract_locations
        ):
            raise ShardRoutingError(
                f"no contract named {contract!r} is deployed in any cell group"
            )
        try:
            return self.deployment.shard_map.route_call(contract, method, args)
        except ShardingError as exc:
            raise ShardRoutingError(str(exc)) from exc

    def submit(
        self,
        contract: str,
        method: str,
        args: dict[str, Any],
        signer: Optional[Signer] = None,
    ) -> Event:
        """Submit a single-group transaction to the owning group."""
        group = self.route(contract, method, args)
        return self.clients[group].submit(contract, method, args, signer=signer)

    def query(self, contract: str, view: str, args: dict[str, Any] | None = None) -> Event:
        """Read-only query served by the owning group's service cell."""
        group = self.route(contract, view, args or {})
        return self.clients[group].query(contract, view, args)

    # ------------------------------------------------------------------
    # Span detection (reusing the lane engine's access footprints)
    # ------------------------------------------------------------------
    def plan_groups(self, calls: list[Call], sender: Optional[Address] = None) -> frozenset[int]:
        """Groups the calls touch, per their pre-execution access plans.

        Each call's target contract (on its owning group) is asked for
        its declared access plan; the resulting
        :class:`~repro.core.lanes.AccessFootprint` qualified keys map
        back through the shard map.  A contract without a plan
        contributes its owning group alone — exactly the exclusive
        fallback the lane engine uses, and always a superset-safe answer
        here because one contract's keys live on one group.
        """
        sender_hex = (sender or self.signer.address).hex()
        groups: set[int] = set()
        for contract_name, method, args in calls:
            home = self.route(contract_name, method, args)
            groups.add(home)
            registry = self.deployment.group(home).cells[0].contracts
            if not registry.contains(contract_name):
                continue
            plan = None
            try:
                plan = registry.get(contract_name).access_plan(
                    method, args, sender=sender_hex, tx_id=f"plan/{method}"
                )
            except Exception:  # noqa: BLE001 - planless calls route by contract
                plan = None
            if plan is None:
                continue
            footprint = AccessFootprint.from_access_set(contract_name, plan)
            spanned = self.deployment.shard_map.groups_for_footprint(footprint)
            if spanned is not None:
                groups.update(spanned)
        return frozenset(groups)

    # ------------------------------------------------------------------
    # The two-phase cross-shard commit
    # ------------------------------------------------------------------
    def next_xtx(self) -> str:
        """A fresh deployment-unique cross-shard transaction id."""
        self._xtx_counter += 1
        digest = fast_hash(
            b"xtx/" + self.signer.address.value + self._xtx_counter.to_bytes(8, "big")
        )
        return "0x" + digest[:16].hex()

    def submit_cross(
        self,
        plans: list[ParticipantPlan],
        signer: Optional[Signer] = None,
        xtx: Optional[str] = None,
    ) -> Event:
        """Run a cross-shard transaction; the process value is a CrossShardResult."""
        if len({plan.group for plan in plans}) != len(plans) or len(plans) < 2:
            raise ShardRoutingError(
                "a cross-shard transaction needs one plan per group, for at least two groups"
            )
        return self.env.process(
            self._coordinate(plans, signer or self.signer, xtx or self.next_xtx())
        )

    def _gateway_client(self, group: int) -> BlockumulusClient:
        """The client bound to ``group``'s designated gateway cell."""
        if self._service_cell_index == GATEWAY_CELL_INDEX:
            # The regular per-group client already talks to the gateway.
            return self.clients[group]
        client = self._gateway_clients[group]
        if client is None:
            client = BlockumulusClient(
                self.deployment.group(group),
                signer=self.signer,
                service_cell_index=GATEWAY_CELL_INDEX,
                node_name=(
                    f"{self._node_basename}@g{group}/gw"
                    if self._node_basename is not None
                    else None
                ),
                nonces=self.nonces,
            )
            self._gateway_clients[group] = client
        return client

    def _sign_call(self, signer: Signer, group: int, call: Call) -> Envelope:
        """Sign one inner transaction addressed to a group's gateway cell."""
        contract, method, args = call
        client = self._gateway_client(group)
        return client.endpoint.sign(
            client.service_cell.address,
            Opcode.TX_SUBMIT,
            {"contract": contract, "method": method, "args": args},
            signer=signer,
        )

    def _send_phase(self, signer: Signer, group: int, data: dict[str, Any], opcode: Opcode) -> Event:
        """Send one 2PC phase or voucher leg to ``group``'s gateway.

        Returns the event that fires with the gateway's reply, or with None
        once the forwarding deadline passed (at once for an unreachable
        gateway).
        """
        _request, answer = self._gateway_client(group).request(
            opcode, data, signer=signer, deadline=self.deployment.config.forwarding_deadline
        )
        return answer

    def _inner_outcome(
        self,
        group: int,
        answer: Union[VoteReply, VoucherReply],
        inner: Envelope,
        reply: Envelope,
        ok: bool = True,
        error: Optional[str] = None,
        vote: Optional[CrossShardVote] = None,
    ) -> PhaseOutcome:
        """The outcome of a gateway's ``reply`` to ``inner``, its inner receipt checked.

        The receipt is checked as a direct submission's is
        (:meth:`BlockumulusClient.checked_receipt`, by the group's
        invariants and cell keys): one that fails makes the phase not ok.
        """
        if answer.receipt is None:
            return PhaseOutcome(ok=ok, vote=vote, error=error)
        receipt, refusal = self._gateway_client(group).checked_receipt(
            answer.receipt, inner, reply
        )
        if receipt is None:
            return PhaseOutcome(ok=False, vote=vote, error=f"inner {refusal}")
        return PhaseOutcome(ok=ok, vote=vote, receipt=receipt, error=error)

    def _parse_vote(
        self,
        reply: Optional[Envelope],
        inner: Envelope,
        xtx: str,
        group: int,
        participants: tuple[int, ...],
        phase: str,
    ) -> PhaseOutcome:
        """Turn one gateway reply (or its absence) to ``inner``'s phase into a PhaseOutcome."""
        try:
            answer = read_reply(reply, Opcode.XSHARD_VOTE, GATEWAY_SILENT)
        except ReplyError as exc:
            return PhaseOutcome(ok=False, error=str(exc))
        vote = answer.vote
        if (
            vote.xtx != xtx
            or vote.group != group
            or vote.participants != participants
            or vote.phase != phase
            or not vote.verify()
            or vote.voter != reply.sender
        ):
            return PhaseOutcome(ok=False, error="gateway vote failed verification")
        return self._inner_outcome(group, answer, inner, reply, vote.ok, answer.error, vote)

    def _collect_votes(
        self,
        answers: dict[int, tuple[Envelope, Event]],
        xtx: str,
        participants: tuple[int, ...],
        phase: str,
    ) -> Generator[Event, Any, dict[int, PhaseOutcome]]:
        """Every asked gateway's outcome for ``phase``, by group (a process step).

        ``answers`` holds, per group, the inner transaction sent and the
        event of the reply.  Waits until each of them answered or ran into
        the forwarding deadline; a gateway still silent then is an outcome
        like any other.
        """
        if answers:
            yield self.env.all_of([answer for _inner, answer in answers.values()])
        return {
            group: self._parse_vote(answer.value, inner, xtx, group, participants, phase)
            for group, (inner, answer) in answers.items()
        }

    def _coordinate(
        self, plans: list[ParticipantPlan], signer: Signer, xtx: str
    ) -> Generator[Event, Any, CrossShardResult]:
        submitted_at = self.env.now
        participants = tuple(sorted(plan.group for plan in plans))

        # Phase 1: prepare everywhere, in parallel.
        prepare_waiters: dict[int, tuple[Envelope, Event]] = {}
        for plan in plans:
            inner = self._sign_call(signer, plan.group, plan.prepare)
            body = CrossShardPrepare(
                xtx=xtx, group=plan.group, participants=participants,
                transaction=inner.to_link(with_sender=False),
            )
            prepare_waiters[plan.group] = inner, self._send_phase(
                signer, plan.group, body.to_data(), Opcode.XSHARD_PREPARE
            )
        prepare = yield from self._collect_votes(prepare_waiters, xtx, participants, "prepare")

        committing = all(outcome.ok for outcome in prepare.values())
        decision = "commit" if committing else "abort"
        # The decision certificate: all yes votes for a commit, and the
        # genuine no votes as evidence for an abort (gateways require
        # proof that the commit certificate can never be assembled).
        certificate = tuple(
            outcome.vote for outcome in prepare.values() if outcome.vote is not None
        )
        have_no_vote = any(
            outcome.vote is not None and not outcome.vote.ok
            for outcome in prepare.values()
        )

        # Phase 2: commit everywhere, or roll back the groups that held.
        ack_waiters: dict[int, tuple[Envelope, Event]] = {}
        if committing or have_no_vote:
            for plan in plans:
                if not committing:
                    outcome = prepare[plan.group]
                    if outcome.vote is not None and not outcome.vote.ok:
                        # An explicit no-vote means the hold itself failed
                        # and was rolled back by the contract — nothing to
                        # abort.  A *lost* vote is different: the hold may
                        # have been taken, so the abort (carrying the
                        # no-vote evidence) is still sent; a gateway that
                        # never prepared simply refuses it.
                        continue
                call = plan.commit if committing else plan.abort
                inner = self._sign_call(signer, plan.group, call)
                body = CrossShardDecision(
                    xtx=xtx, decision=decision, group=plan.group,
                    participants=participants, transaction=inner.to_link(with_sender=False),
                    votes=certificate,
                )
                ack_waiters[plan.group] = inner, self._send_phase(
                    signer, plan.group, body.to_data(),
                    Opcode.XSHARD_COMMIT if committing else Opcode.XSHARD_ABORT,
                )
        acks = yield from self._collect_votes(ack_waiters, xtx, participants, decision)

        ok = committing and all(outcome.ok for outcome in acks.values())
        error: Optional[str] = None
        in_transit = False
        if not committing:
            # Aggregate every group's distinct refusal, sorted by group,
            # so shrink/attribution reports see a stable message even
            # when several groups voted no for different reasons (dict
            # order used to surface an arbitrary one).
            failed = sorted(
                (group, outcome.error)
                for group, outcome in prepare.items()
                if not outcome.ok and outcome.error is not None
            )
            if not have_no_vote:
                error = (
                    "prepare votes were lost before any decision was provable; "
                    "holds remain escrowed until the decision is re-driven"
                )
            else:
                error = (
                    "; ".join(f"group {group}: {reason}" for group, reason in failed)
                    if failed
                    else "prepare phase failed"
                )
        elif not ok:
            # The commit *decision* was reached — the certificate in
            # ``prepare`` proves it and the decision was sent — so the
            # value is in transit, not lost: every group that received
            # the decision applied (or will apply) it, and a group that
            # missed it can have the certificate re-driven.  Reporting
            # this as a plain failure double-counts the transfer.
            in_transit = True
            failed = sorted(
                (group, outcome.error or "no commit acknowledgement before the deadline")
                for group, outcome in acks.items()
                if not outcome.ok
            )
            error = (
                "commit decided but not fully acknowledged ("
                + "; ".join(f"group {group}: {reason}" for group, reason in failed)
                + "); value is in transit under the commit certificate"
            )
        return CrossShardResult(
            ok=ok,
            xtx=xtx,
            decision=decision,
            submitted_at=submitted_at,
            completed_at=self.env.now,
            prepare=prepare,
            acks=acks,
            error=error,
            in_transit=in_transit,
        )

    # ------------------------------------------------------------------
    # The one-way voucher fast path
    # ------------------------------------------------------------------
    def destination_is_pure_increment(
        self, group: int, call: Call, sender: Optional[Address] = None
    ) -> bool:
        """Prove (not assume) that ``call``'s effect is a pure increment.

        The fast-path safety rule: the destination leg may skip 2PC only
        when its declared access plan shows that, apart from keys minted
        fresh for this transaction (they embed the unique xtx id, so no
        other transaction can touch them), every effect is a commutative
        delta.  Such a call commutes with all concurrent traffic — a
        one-way voucher redeemed at any later time yields the same state
        as a synchronous 2PC credit.  Anything unprovable (no plan, a
        read or write of a shared key, a routing mismatch) answers
        ``False`` and the transfer falls back to full 2PC.
        """
        contract_name, method, args = call
        xtx = args.get("xtx")
        if not isinstance(xtx, str) or not xtx:
            return False
        try:
            if self.route(contract_name, method, args) != group:
                return False
        except ShardRoutingError:
            return False
        registry = self.deployment.group(group).cells[0].contracts
        if not registry.contains(contract_name):
            return False
        sender_hex = (sender or self.signer.address).hex()
        try:
            plan = registry.get(contract_name).access_plan(
                method, args, sender=sender_hex, tx_id=f"plan/{method}"
            )
        except Exception:  # noqa: BLE001 - planless calls cannot prove safety
            return False
        if plan is None:
            return False
        shared = {key for key in (plan.reads | plan.writes) if xtx not in key}
        return not shared

    def submit_voucher(
        self,
        source_group: int,
        target_group: int,
        mint: Call,
        redeem: Call,
        signer: Optional[Signer] = None,
        xtx: Optional[str] = None,
        await_redeem: bool = True,
    ) -> Event:
        """Run a fast-path voucher transfer; the process value is a CrossShardResult.

        With ``await_redeem=False`` the process completes as soon as the
        signed voucher is secured and verified against the shard
        directory — the one-way asynchronous mode: the redeem leg keeps
        running in the background (``CrossShardResult.redeem`` resolves
        to the final outcome once delivery settles).
        """
        if source_group == target_group:
            raise ShardRoutingError("a voucher transfer needs two distinct groups")
        return self.env.process(
            self._coordinate_voucher(
                source_group, target_group, mint, redeem,
                signer or self.signer, xtx or self.next_xtx(),
                await_redeem=await_redeem,
            )
        )

    def _coordinate_voucher(
        self,
        source_group: int,
        target_group: int,
        mint: Call,
        redeem: Call,
        signer: Signer,
        xtx: str,
        await_redeem: bool = True,
    ) -> Generator[Event, Any, CrossShardResult]:
        """Drive mint-then-redeem; one message to each gateway, no barrier.

        Unlike :meth:`_coordinate` there is no prepare/decide round trip:
        the source gateway's signed voucher *is* the decision, and the
        destination's redeem is idempotent and deadline-bounded, so every
        partial outcome resolves — a refused mint fails cleanly before
        any value moves, and a lost voucher (or lost/refused redeem)
        leaves the value in transit until the source holder reclaims it
        after the voucher's reclaim deadline.

        With ``await_redeem=False`` the coordinator verifies the voucher
        against the shard directory itself (the check is load-bearing
        here: the early ``ok`` promises the credit will be honoured, so
        a forged voucher must be refused *before* the promise) and
        returns once it holds a valid voucher; the redeem leg runs on in
        the background and resolves ``CrossShardResult.redeem``.
        """
        submitted_at = self.env.now

        def result(
            ok: bool, decision: str, *, error: Optional[str] = None,
            in_transit: bool = False,
            prepare: Optional[dict[int, PhaseOutcome]] = None,
            acks: Optional[dict[int, PhaseOutcome]] = None,
            redeem_event: Optional[Event] = None,
        ) -> CrossShardResult:
            return CrossShardResult(
                ok=ok, xtx=xtx, decision=decision,
                submitted_at=submitted_at, completed_at=self.env.now,
                prepare=prepare or {}, acks=acks or {},
                error=error, in_transit=in_transit, redeem=redeem_event,
            )

        # Leg 1: the source gateway mints (escrowed debit + signed voucher).
        inner = self._sign_call(signer, source_group, mint)
        body = CrossShardVoucherTransfer(
            phase="mint", group=source_group,
            transaction=inner.to_link(with_sender=False),
            target_group=target_group, target_contract=redeem[0],
        )
        reply = yield self._send_phase(signer, source_group, body.to_data(), Opcode.XSHARD_VOUCHER)
        if reply is None:
            return result(
                False, "abort", in_transit=True,
                error=(
                    "voucher mint unanswered before the deadline; an outstanding "
                    "voucher reclaims after its deadline"
                ),
            )
        try:
            minted = read_reply(reply, Opcode.XSHARD_VOUCHER)
        except ReplyError as exc:
            return result(False, "abort", error=str(exc))
        if minted.phase != "minted" or minted.signature is None:
            return result(False, "abort", error="malformed voucher mint reply")
        mint_outcome = self._inner_outcome(source_group, minted, inner, reply)
        if not mint_outcome.ok:
            return result(
                False, "abort", in_transit=True, prepare={source_group: mint_outcome},
                error=(
                    f"voucher mint refused ({mint_outcome.error}); an outstanding "
                    "voucher reclaims after its deadline"
                ),
            )
        # The voucher the gateway asked signed, as the redeem carries it.
        voucher = CompactVoucher(
            reply.sender, source_group, minted.signature,
            None if reply.scheme == signer.scheme else reply.scheme,
        )

        if not await_redeem:
            # The asynchronous commit point: once the client holds a
            # directory-valid voucher the outcome is irrevocable — the
            # destination must honour it (idempotently) until its
            # deadline, after which the escrow reclaims.  The signature
            # check is load-bearing for the early ok, so a forged
            # voucher is refused here, before the promise is made.
            # It is rebuilt from this mint call, which names what it vouches for.
            refusal = voucher.voucher(
                target_group, redeem[0], mint[2], signer.scheme
            ).verify_against(self.deployment.gateway_directory())
            if refusal is not None:
                return result(
                    False, "abort", in_transit=True,
                    prepare={source_group: mint_outcome},
                    error=(
                        f"voucher failed directory verification ({refusal}); "
                        "the escrowed debit reclaims after its deadline"
                    ),
                )
            redeem_event = self.env.process(
                self._redeem_voucher_leg(
                    signer, source_group, target_group, redeem, xtx,
                    voucher, mint_outcome, submitted_at,
                )
            )
            return result(
                True, "commit", prepare={source_group: mint_outcome},
                redeem_event=redeem_event,
            )

        # The synchronous client relays the voucher without judging its
        # signature: the destination gateway's directory check is the
        # authoritative refusal (which is how a forged voucher gets
        # caught and counted there rather than silently dropped here).
        final = yield from self._redeem_voucher_leg(
            signer, source_group, target_group, redeem, xtx,
            voucher, mint_outcome, submitted_at,
        )
        return final

    def _redeem_voucher_leg(
        self,
        signer: Signer,
        source_group: int,
        target_group: int,
        redeem: Call,
        xtx: str,
        voucher: CompactVoucher,
        mint_outcome: PhaseOutcome,
        submitted_at: float,
    ) -> Generator[Event, Any, CrossShardResult]:
        """Deliver one voucher to the destination gateway for redemption."""

        def result(
            ok: bool, *, error: Optional[str] = None, in_transit: bool = False,
            acks: Optional[dict[int, PhaseOutcome]] = None,
        ) -> CrossShardResult:
            return CrossShardResult(
                ok=ok, xtx=xtx, decision="commit",
                submitted_at=submitted_at, completed_at=self.env.now,
                prepare={source_group: mint_outcome}, acks=acks or {},
                error=error, in_transit=in_transit,
            )

        inner = self._sign_call(signer, target_group, redeem)
        body = CrossShardVoucherTransfer(
            phase="redeem", group=target_group,
            transaction=inner.to_link(with_sender=False),
            voucher=voucher,
        )
        reply = yield self._send_phase(signer, target_group, body.to_data(), Opcode.XSHARD_VOUCHER)
        if reply is None:
            return result(
                False, in_transit=True,
                acks={target_group: PhaseOutcome(ok=False, error=GATEWAY_SILENT)},
                error=(
                    "voucher minted but the redeem was unanswered; value is in "
                    "transit until redeemed or reclaimed"
                ),
            )
        try:
            redeemed = read_reply(reply, Opcode.XSHARD_VOUCHER)
            if redeemed.phase != "redeemed":
                raise ReplyError(f"unexpected voucher reply phase {redeemed.phase!r}")
        except ReplyError as refusal:
            return result(
                False, in_transit=True,
                acks={target_group: PhaseOutcome(ok=False, error=str(refusal))},
                error=(
                    f"voucher minted but the redeem was refused ({refusal}); value "
                    "is in transit until redeemed or reclaimed"
                ),
            )
        outcome = self._inner_outcome(target_group, redeemed, inner, reply)
        if not outcome.ok:
            return result(
                False, in_transit=True, acks={target_group: outcome},
                error=(
                    f"voucher redeemed but refused ({outcome.error}); value is in "
                    "transit until redeemed or reclaimed"
                ),
            )
        return result(True, acks={target_group: outcome})


class ShardedFastMoneyClient:
    """FastMoney over a sharded deployment: per-group instances + 2PC transfers.

    The application deploys one FastMoney instance per group (named
    :meth:`instance_name`); accounts are assigned to groups by a stable
    hash, and a transfer whose sender and recipient live on different
    groups runs as a cross-shard escrow transfer (reserve/expect →
    settle/credit).  With one shard the instance name collapses to the
    base name and every transfer is a plain single-group transfer —
    which is what keeps ``shard_count=1`` identical to the unsharded
    pipeline.
    """

    def __init__(self, client: ShardedClient, base_name: str = FastMoney.DEFAULT_NAME) -> None:
        self.client = client
        self.base_name = base_name
        self.shard_count = client.deployment.shard_count

    @staticmethod
    def instance_name(base_name: str, group: int, shard_count: int) -> str:
        """Deployment name of the per-group instance (base name unsharded)."""
        return base_name if shard_count == 1 else f"{base_name}@s{group}"

    def instance(self, group: int) -> str:
        """This app's instance name on cell group ``group``."""
        return self.instance_name(self.base_name, group, self.shard_count)

    @staticmethod
    def account_home(base_name: str, account: Address | str, shard_count: int) -> int:
        """Home group of an account under one app's namespace (pure function)."""
        account_hex = account.hex() if isinstance(account, Address) else account
        return _stable_shard(
            f"account/{base_name}/{account_hex.lower()}", shard_count
        )

    def shard_of_account(self, account: Address | str) -> int:
        """Home group of an account (stable hash of its address)."""
        return self.account_home(self.base_name, account, self.shard_count)

    def on_group(self, group: int) -> FastMoneyClient:
        """The plain FastMoney client of this app's instance on ``group``."""
        return FastMoneyClient(self.client.client_for(group), contract_name=self.instance(group))

    def transfer(
        self,
        to: Address | str,
        amount: int,
        signer: Optional[Signer] = None,
        hold_expiry: Optional[float] = None,
        fast_path: bool = False,
    ) -> Event:
        """Transfer with automatic routing: plain in-group, 2PC across groups.

        Sender and recipient are placed by :meth:`shard_of_account`; the
        rest is :meth:`transfer_between`.  ``hold_expiry`` (seconds from
        now) arms the cross-shard escrow safety valve — see
        :meth:`transfer_cross`; it is ignored for in-group transfers,
        which hold nothing.  ``fast_path`` opts a cross-group transfer
        into the one-way voucher path when its destination footprint
        proves safe.
        """
        signer = signer or self.client.signer
        return self.transfer_between(
            self.shard_of_account(signer.address), self.shard_of_account(to), to, amount,
            signer=signer, hold_expiry=hold_expiry, fast_path=fast_path,
        )

    def transfer_between(
        self,
        source_group: int,
        target_group: Optional[int],
        to: Address | str,
        amount: int,
        signer: Optional[Signer] = None,
        **cross_options: Any,
    ) -> Event:
        """Transfer with explicit placement (how the workloads spread load).

        With no ``target_group`` (or the source group again) this is a
        plain transfer on the source group's instance and the event value
        is a :class:`~repro.client.client.TransactionResult`; otherwise it
        is :meth:`transfer_cross` with ``cross_options`` and the value is
        a :class:`CrossShardResult`.
        """
        if target_group is None or target_group == source_group:
            return self.on_group(source_group).transfer(to, amount, signer=signer)
        return self.transfer_cross(
            source_group, target_group, to, amount, signer=signer, **cross_options
        )

    #: Voucher deadline when the caller arms no explicit hold_expiry,
    #: as a multiple of the forwarding deadline: far beyond the redeem
    #: round trip, yet early enough that a lost voucher reclaims within
    #: a bounded horizon.
    DEFAULT_VOUCHER_EXPIRY_FACTOR = 2.5

    def transfer_cross(
        self,
        source_group: int,
        target_group: int,
        to: Address | str,
        amount: int,
        signer: Optional[Signer] = None,
        hold_expiry: Optional[float] = None,
        fast_path: bool = False,
        skew_pad: float = DEFAULT_SKEW_PAD,
        await_redeem: bool = True,
    ) -> Event:
        """Cross-group transfer: two-phase escrow, or the voucher fast path.

        ``hold_expiry`` (seconds from now, far beyond the decision
        deadline) arms both escrow legs: if this coordinator then
        vanishes between PREPARE and the decision, the sender can pull
        the hold back with ``xshard_reclaim`` once the expiry passes,
        and a decision driven after it is refused on both sides.
        ``None`` (the default) keeps the historical behaviour — an
        undecided hold stays escrowed until a decision is re-driven.
        The *destination* leg's deadline is padded by ``skew_pad``
        (see :data:`DEFAULT_SKEW_PAD`): deadlines are checked at
        delivery time, and under skewed delivery the credit can arrive
        after a deadline the settle met — the pad keeps the two legs
        symmetric under the configured skew bound.

        ``fast_path=True`` runs the transfer as a one-way credit voucher
        *when the destination footprint provably is a pure increment*
        (see :meth:`ShardedClient.destination_is_pure_increment`):
        the source gateway executes the escrowed debit and signs a
        voucher, the destination redeems it as a plain increment — one
        message to each gateway instead of two full 2PC rounds.  The
        voucher always carries a deadline (``hold_expiry`` when given,
        else ``DEFAULT_VOUCHER_EXPIRY_FACTOR`` forwarding deadlines) so
        a lost voucher reclaims cleanly; an unprovable footprint falls
        back to full 2PC.  ``await_redeem=False`` (fast path only)
        completes once the voucher is secured and directory-verified,
        leaving the redeem to a background delivery —
        :attr:`CrossShardResult.redeem` resolves to the final outcome.
        """
        if source_group == target_group:
            raise ShardRoutingError("a cross-shard transfer needs two distinct groups")
        if hold_expiry is not None and hold_expiry <= self.client.deployment.config.forwarding_deadline:
            raise ShardRoutingError(
                "hold_expiry must exceed the forwarding deadline "
                f"({self.client.deployment.config.forwarding_deadline}s), "
                f"got {hold_expiry!r}"
            )
        if skew_pad < 0:
            raise ShardRoutingError(f"skew_pad must be non-negative, got {skew_pad!r}")
        signer = signer or self.client.signer
        recipient = to.hex() if isinstance(to, Address) else to
        xtx = self.client.next_xtx()
        source, target = self.instance(source_group), self.instance(target_group)

        if fast_path:
            expiry = (
                hold_expiry
                if hold_expiry is not None
                else self.DEFAULT_VOUCHER_EXPIRY_FACTOR
                * self.client.deployment.config.forwarding_deadline
            )
            # The redeem deadline is checked at the destination on
            # delivery, so it gets the skew pad; the reclaim deadline
            # sits another pad beyond it, keeping redeem and reclaim
            # mutually exclusive under the skew bound.
            voucher_expires = self.client.env.now + expiry + skew_pad
            reclaim_after = self.client.env.now + expiry + 2 * skew_pad
            mint: Call = (
                source, "xshard_voucher_mint",
                {"xtx": xtx, "to": recipient, "amount": amount,
                 "expires_at": voucher_expires, "reclaim_after": reclaim_after},
            )
            redeem: Call = (
                target, "xshard_voucher_redeem",
                {"xtx": xtx, "to": recipient, "amount": amount,
                 "expires_at": voucher_expires},
            )
            if self.client.destination_is_pure_increment(
                target_group, redeem, sender=signer.address
            ):
                return self.client.submit_voucher(
                    source_group, target_group, mint, redeem,
                    signer=signer, xtx=xtx, await_redeem=await_redeem,
                )
            # Unprovable destination footprint: fall through to 2PC.

        reserve_args: dict[str, Any] = {"xtx": xtx, "amount": amount}
        expect_args: dict[str, Any] = {"xtx": xtx, "to": recipient, "amount": amount}
        if hold_expiry is not None:
            expires_at = self.client.env.now + hold_expiry
            reserve_args["expires_at"] = expires_at
            # The credit-side deadline is enforced against the delivery
            # clock; pad it so a skew-delayed commit cannot expire the
            # destination leg while the source leg settles.
            expect_args["expires_at"] = expires_at + skew_pad
        plans = [
            ParticipantPlan(
                group=source_group,
                prepare=(source, "xshard_reserve", reserve_args),
                commit=(source, "xshard_settle", {"xtx": xtx}),
                abort=(source, "xshard_refund", {"xtx": xtx}),
            ),
            ParticipantPlan(
                group=target_group,
                prepare=(target, "xshard_expect", expect_args),
                commit=(target, "xshard_credit", {"xtx": xtx}),
                abort=(target, "xshard_cancel", {"xtx": xtx}),
            ),
        ]
        # Pre-execution span check: the declared access plans of the two
        # holds must really land on the two intended groups.
        spanned = self.client.plan_groups(
            [plans[0].prepare, plans[1].prepare], sender=signer.address
        )
        if not {source_group, target_group} <= spanned:
            raise ShardRoutingError(
                f"access plans span groups {sorted(spanned)}, "
                f"expected {sorted({source_group, target_group})}"
            )
        return self.client.submit_cross(plans, signer=signer, xtx=xtx)
