"""The cross-shard gateway: a role one cell per group plays.

In a sharded deployment (:mod:`repro.core.sharding`) exactly one cell of
every group is composed with this role object by
:meth:`~repro.core.cell.BlockumulusCell.install_shard_directory`; sibling
cells and unsharded deployments hold none and refuse ``XSHARD_*`` traffic
in the cell's ingress stage.  One authoritative owner per group is the
point: were siblings allowed to serve cross-shard traffic, a duplicate
prepare to a sibling would yield a signed no-vote (the group-wide escrow
rejects the replay) while the hold stands, manufacturing abort evidence
against a commit-eligible transaction.

The gateway owns the shard directory (group index -> gateway addresses,
used to verify decision certificates and vouchers) and the per-xtx
registry whose state machine rejects out-of-order or contradictory
phases.  Requests reach it already admitted and authenticated by the
ingress stage; it services every inner client-signed transaction through
the exact pipeline directly submitted transactions use, so the group's
ledgers, receipts, and fingerprints treat cross-shard traffic like any
other traffic.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Generator, Optional, TypeVar, Union

from ..crypto.keys import Address
from ..messages.envelope import Envelope, EnvelopeError
from ..messages.opcodes import Opcode
from ..messages.signer import SignedStatement
from ..messages.xshard import (
    CrossShardDecision,
    CrossShardError,
    CrossShardPrepare,
    CrossShardVote,
    CrossShardVoucher,
    CrossShardVoucherTransfer,
)
from ..sim.events import Event
from .receipts import CompactReceipt
from .replies import VoteReply, VoucherReply
from .subscription import SubscriptionError

if TYPE_CHECKING:
    from .cell import BlockumulusCell
    from .stages import _ServiceResult

_S = TypeVar("_S", bound=SignedStatement)

_PhaseBody = Union[CrossShardPrepare, CrossShardDecision]

#: Kind of inner transaction -> (xtx state once it is fully confirmed,
#: xtx state once it failed).  A failed commit/abort records nothing: the
#: transaction stays ``prepared`` so the decision can be re-driven.
_OUTCOME_STATES: dict[str, tuple[str, Optional[str]]] = {
    "prepare": ("prepared", "prepare-failed"),
    "commit": ("committed", None),
    "abort": ("aborted", None),
    "voucher_mint": ("voucher-minted", "voucher-failed"),
    "voucher_redeem": ("voucher-redeemed", "voucher-redeem-failed"),
}


def _forged(statement: _S) -> _S:
    """``statement`` with its signature flipped: well-formed, never verifies."""
    return dataclasses.replace(
        statement, signature=bytes(byte ^ 0xFF for byte in statement.signature)
    )


class CrossShardGateway:
    """The 2PC state machine and voucher fast path of one group's gateway cell."""

    def __init__(
        self, cell: "BlockumulusCell", group: int, directory: dict[int, frozenset[Address]]
    ) -> None:
        self.cell = cell
        self.group = group
        self.directory = {g: frozenset(addresses) for g, addresses in directory.items()}
        self._xshard_state: dict[str, str] = {}

    @property
    def transaction_count(self) -> int:
        """Cross-shard transactions this gateway holds a state for."""
        return len(self._xshard_state)

    # ------------------------------------------------------------------
    # Entry point (reached from the cell's ingress stage)
    # ------------------------------------------------------------------
    def handle_request(
        self,
        src_node: str,
        envelope: Envelope,
        body: Union[_PhaseBody, CrossShardVoucherTransfer],
    ) -> Generator[Event, Any, None]:
        """Serve one authenticated, parsed ``XSHARD_*`` request for this group.

        The coordinator's outer envelope carries this group's inner
        client-signed transaction: a 2PC hold, settle/credit or
        refund/cancel — answered with the gateway's signed
        :class:`CrossShardVote` — or one leg of the voucher fast path.
        """
        try:
            # Cross-shard phases are client traffic: the same access
            # subscription that gates TX_SUBMIT gates them.
            self.cell.subscriptions.check_access(envelope.sender)
        except SubscriptionError as exc:
            self.cell.refuse(src_node, envelope, str(exc))
            return
        if isinstance(body, CrossShardDecision) and (
            (envelope.operation == Opcode.XSHARD_COMMIT) != (body.decision == "commit")
        ):
            self.cell.refuse(src_node, envelope, "decision does not match the envelope opcode")
        elif body.group != self.group:
            self.cell.refuse(
                src_node, envelope, f"cell group {self.group} is not group {body.group}"
            )
        elif isinstance(body, CrossShardVoucherTransfer):
            yield from self._serve_voucher(src_node, envelope, body)
        else:
            yield from self._serve_phase(src_node, envelope, body)

    # ------------------------------------------------------------------
    # The inner client-signed transaction (shared by every kind)
    # ------------------------------------------------------------------
    def _inner_transaction(
        self,
        envelope: Envelope,
        body: Union[_PhaseBody, CrossShardVoucherTransfer],
        method: Optional[str] = None,
    ) -> Optional[Envelope]:
        """Parse and authenticate the request's inner transaction.

        The inner transaction must be an ordinary ``TX_SUBMIT``, signed
        by the same client that coordinates the cross-shard transaction
        (a coordinator can only move funds it could have moved with
        direct submissions), and addressed to *this* cell — otherwise one
        signed envelope could be replayed onto several groups, breaking
        the namespace partition the routing layer guarantees.  Both
        identities travel only on the outer envelope: the inner one is
        read under them, and verifies only if it was signed for them.
        Voucher legs pass their ``method``: it and the inner xtx must
        match the outer request, so a gateway never signs a voucher (or
        credits one) over a transaction that does something else.
        Returns None for an inner transaction this gateway must not
        service.
        """
        try:
            inner = Envelope.from_link(body.transaction, self.cell.address, envelope.sender)
        except EnvelopeError:
            return None
        if not inner.verify() or inner.operation != Opcode.TX_SUBMIT:
            return None
        if method is not None:
            data = inner.data
            if data.get("method") != method or data.get("args", {}).get("xtx") != body.xtx:
                return None
        return inner

    def _record(self, xtx: str, kind: str, ok: bool) -> None:
        """Move ``xtx`` to the state a ``kind`` outcome implies, and count it."""
        state = _OUTCOME_STATES[kind][0 if ok else 1]
        if state is not None:
            self._xshard_state[xtx] = state
        self.cell.metrics.increment(
            f"{self.cell.node_name}/xshard_{kind}_{'ok' if ok else 'failed'}"
        )

    def _service_inner(
        self, envelope: Envelope, inner: Envelope, xtx: str, kind: str
    ) -> Generator[Event, Any, Optional["_ServiceResult"]]:
        """Run ``inner`` through the cell's service pipeline and record it.

        Returns None when nothing may be answered: the cell censors the
        transaction or crashed mid-service.
        """
        cell = self.cell
        if cell.fault.is_censored(inner):
            # A censoring cell drops cross-shard traffic exactly as it
            # drops direct submissions (Section V-B).
            cell.metrics.increment(f"{cell.node_name}/censored")
            return None
        result = yield from cell.service.pipeline(inner)
        if result.aborted:
            return None
        if result.admit_error is None:
            # Bill the inner transaction exactly like a direct TX_SUBMIT
            # (which records serviced transactions whether or not the
            # confirmation round succeeded).
            cell.subscriptions.record_transaction(envelope.sender)
        self._record(xtx, kind, result.confirmed)
        return result

    # ------------------------------------------------------------------
    # Two-phase commit
    # ------------------------------------------------------------------
    def _serve_phase(
        self, src_node: str, envelope: Envelope, body: _PhaseBody
    ) -> Generator[Event, Any, None]:
        """Serve one 2PC phase: no commit without a verified certificate, no reversal."""
        phase = "prepare" if isinstance(body, CrossShardPrepare) else body.decision
        refusal = self._refusal(body)
        if refusal is not None:
            # Protocol refusals are plain errors, never signed votes: a
            # signed no-vote is abort *evidence*, and a coordinator must
            # not be able to manufacture one by, say, sending a duplicate
            # prepare to a group that actually holds funds.
            self.cell.refuse(src_node, envelope, refusal, xtx=body.xtx)
            return
        inner = self._inner_transaction(envelope, body)
        if inner is None:
            # A failed prepare poisons the xtx state so a later
            # well-formed prepare cannot coexist with this signed no-vote
            # (which is abort evidence).
            if phase == "prepare":
                self._xshard_state[body.xtx] = "prepare-failed"
            self._vote(
                src_node, envelope, body, phase, ok=False,
                error="inner transaction invalid for this gateway",
            )
            return
        result = yield from self._service_inner(envelope, inner, body.xtx, phase)
        if result is None:
            return
        self._vote(
            src_node, envelope, body, phase, ok=result.confirmed,
            receipt=result.receipt,
            error=None if result.confirmed else result.failure_reason(),
        )

    def _refusal(self, body: _PhaseBody) -> Optional[str]:
        """Why this phase must be refused outright (None to proceed).

        Encodes the per-xtx 2PC state machine: one prepare, then exactly
        one of commit/abort, and a commit only with a verified
        certificate.  The contract-level escrow status machine enforces
        the same transitions group-wide; this check merely refuses bad
        decisions before they waste a full confirmation round.
        """
        state = self._xshard_state.get(body.xtx)
        if isinstance(body, CrossShardPrepare):
            if state is not None:
                return f"cross-shard transaction {body.xtx} was already prepared"
            return None
        if state is None or state == "prepare-failed":
            return f"no prepared cross-shard transaction {body.xtx}"
        if state in ("committed", "aborted"):
            return f"cross-shard transaction {body.xtx} was already {state}"
        # Both decisions need evidence: commit a full yes-certificate,
        # abort at least one genuine no-vote (mutually exclusive).
        certificate_error = body.certificate_error(self.directory)
        if certificate_error is not None:
            # The directory-verified certificate caught a half-commit
            # (forged, missing, or wrong-shaped votes) — count it so the
            # chaos attribution oracle can name this mechanism.
            self.cell.metrics.increment(f"{self.cell.node_name}/xshard_certificate_refusals")
        return certificate_error

    def _vote(
        self,
        src_node: str,
        request: Envelope,
        body: _PhaseBody,
        phase: str,
        *,
        ok: bool,
        receipt: Optional[CompactReceipt] = None,
        error: Optional[str] = None,
    ) -> None:
        """Sign and send this gateway's vote / acknowledgement for a phase."""
        cell = self.cell
        mode = cell.fault.lying_gateway
        # The "voucher" lying mode corrupts voucher mints instead of 2PC
        # prepare votes (see _serve_mint); it must leave the vote path
        # honest so its probe traffic isolates the forgery.
        lying = mode in ("forge", "withhold") and phase == "prepare"
        if lying:
            cell.fault.record("lying_gateway", mode=mode, xtx=body.xtx, honest_ok=ok)
            cell.metrics.increment(f"{cell.node_name}/xshard_votes_{mode}d")
            if mode == "withhold":
                # The gateway never answers: no signed yes-vote can exist,
                # so no commit certificate over this group can assemble.
                return
            # Forge: an always-yes vote whose signature cannot verify —
            # the coordinator and every certificate check must refuse it
            # (destroying a genuine no-vote's abort evidence on the way).
            ok = True
        vote = CrossShardVote.create(
            cell.signer, body.xtx, self.group, body.participants, phase, ok
        )
        if lying:
            vote = _forged(vote)
        cell.reply(
            src_node, request, Opcode.XSHARD_VOTE, VoteReply(vote, receipt, error).to_data()
        )

    # ------------------------------------------------------------------
    # Voucher fast path (one-way credit vouchers)
    # ------------------------------------------------------------------
    def _voucher_leg(
        self,
        src_node: str,
        envelope: Envelope,
        body: CrossShardVoucherTransfer,
        inner: Optional[Envelope],
        invalid: str,
    ) -> Generator[Event, Any, Optional["_ServiceResult"]]:
        """Service a voucher leg's inner transaction, answering failures.

        Returns the result of a fully confirmed leg; None once the leg
        has ended (refused with ``invalid``, failed, censored, crashed).
        """
        kind = f"voucher_{body.phase}"
        if inner is None:
            # Refused before anything executes: no debit, no credit, and
            # the xtx is poisoned against a later well-formed leg
            # (single-use ids, exactly as in the 2PC state machine).
            self._record(body.xtx, kind, ok=False)
            self.cell.refuse(src_node, envelope, invalid, xtx=body.xtx)
            return None
        result = yield from self._service_inner(envelope, inner, body.xtx, kind)
        if result is not None and not result.confirmed:
            self.cell.refuse(src_node, envelope, result.failure_reason(), xtx=body.xtx)
            return None
        return result

    def _serve_voucher(
        self, src_node: str, envelope: Envelope, body: CrossShardVoucherTransfer
    ) -> Generator[Event, Any, None]:
        """Serve one voucher leg; cross-shard ids are single-use."""
        state = self._xshard_state.get(body.xtx)
        if state == "voucher-redeemed" and body.phase == "redeem":
            # The redeemed-voucher registry: duplicate delivery is a
            # no-op acknowledged as such, never a second credit.
            self._acknowledge_duplicate(src_node, envelope, body.xtx)
        elif state is not None:
            self.cell.refuse(
                src_node, envelope,
                f"cross-shard transaction {body.xtx} was already used", xtx=body.xtx,
            )
        elif body.phase == "mint":
            yield from self._serve_mint(src_node, envelope, body)
        else:
            yield from self._serve_redeem(src_node, envelope, body)

    def _serve_mint(
        self, src_node: str, envelope: Envelope, body: CrossShardVoucherTransfer
    ) -> Generator[Event, Any, None]:
        """Service a voucher mint and reply with the signed voucher."""
        cell = self.cell
        inner = self._inner_transaction(envelope, body, "xshard_voucher_mint")
        if inner is not None:
            args = inner.data.get("args", {})
            try:
                recipient = str(args["to"])
                amount = int(args["amount"])
                expires_at = float(args["expires_at"])
            except (KeyError, TypeError, ValueError):
                inner = None
        result = yield from self._voucher_leg(
            src_node, envelope, body, inner, "inner transaction invalid for this gateway"
        )
        if result is None:
            return
        assert body.target_group is not None
        voucher = CrossShardVoucher.create(
            cell.signer, body.xtx, self.group, body.target_group,
            str(body.target_contract), recipient, amount, expires_at,
        )
        if cell.fault.lying_gateway == "voucher":
            # The Byzantine voucher forger: the debit is real, but the
            # emitted voucher's signature cannot verify — every
            # directory check at the destination must refuse it, so the
            # value stays in transit and nothing credits.
            cell.fault.record("lying_gateway", mode="voucher", xtx=body.xtx, honest_ok=True)
            cell.metrics.increment(f"{cell.node_name}/xshard_vouchers_forged")
            voucher = _forged(voucher)
        if cell.fault.drop_voucher:
            # The voucher is lost in flight: the debit stands, the reply
            # never leaves, and the source holder reclaims after the
            # deadline (the lost-voucher recovery path).
            cell.fault.record("voucher_loss", xtx=body.xtx)
            cell.metrics.increment(f"{cell.node_name}/xshard_vouchers_dropped")
            return
        minted = VoucherReply(
            "minted", body.xtx, voucher=voucher,
            receipt=result.receipt,
        )
        cell.reply(src_node, envelope, Opcode.XSHARD_VOUCHER, minted.to_data())

    def _serve_redeem(
        self, src_node: str, envelope: Envelope, body: CrossShardVoucherTransfer
    ) -> Generator[Event, Any, None]:
        """Verify a voucher against the directory and credit its recipient."""
        cell = self.cell
        try:
            voucher = CrossShardVoucher.from_wire(body.voucher or {})
        except CrossShardError as exc:
            self.cell.refuse(src_node, envelope, str(exc))
            return
        if voucher.xtx != body.xtx:
            refusal: Optional[str] = "voucher is for a different cross-shard transaction"
        elif voucher.target_group != self.group:
            refusal = f"voucher targets group {voucher.target_group}, not this group"
        else:
            refusal = voucher.verify_against(self.directory)
        if refusal is not None:
            # A forged (or misdirected) voucher dies here, before any
            # credit — the voucher analogue of certificate refusals,
            # counted for the chaos attribution oracle.
            cell.metrics.increment(f"{cell.node_name}/xshard_voucher_refusals")
            self.cell.refuse(src_node, envelope, refusal, xtx=body.xtx)
            return
        inner = self._inner_transaction(envelope, body, "xshard_voucher_redeem")
        if inner is not None:
            args = inner.data.get("args", {})
            if (
                str(args.get("to")) != voucher.recipient
                or args.get("amount") != voucher.amount
                or args.get("expires_at") != voucher.expires_at
                or inner.data.get("contract") != voucher.contract
            ):
                # The inner credit must spend exactly what the voucher
                # vouches for — nothing more, nowhere else.
                inner = None
        result = yield from self._voucher_leg(
            src_node, envelope, body, inner, "inner transaction does not match the voucher"
        )
        if result is None:
            return
        redeemed = VoucherReply(
            "redeemed", body.xtx, duplicate=False,
            receipt=result.receipt,
        )
        cell.reply(src_node, envelope, Opcode.XSHARD_VOUCHER, redeemed.to_data())
        if cell.fault.duplicate_voucher:
            # The network redelivers the redeem: the registry answers it
            # as a duplicate without touching the pipeline — observable
            # through the metric, inert on state.
            cell.fault.record("voucher_duplication", xtx=body.xtx)
            self._acknowledge_duplicate(src_node, envelope, body.xtx)

    def _acknowledge_duplicate(self, src_node: str, envelope: Envelope, xtx: str) -> None:
        """Answer a redeem the registry already holds: counted, never re-credited."""
        self.cell.metrics.increment(f"{self.cell.node_name}/xshard_voucher_duplicates")
        self.cell.reply(
            src_node, envelope, Opcode.XSHARD_VOUCHER,
            VoucherReply("redeemed", xtx, duplicate=True).to_data(),
        )
