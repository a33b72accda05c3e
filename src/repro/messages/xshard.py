"""Cross-shard two-phase-commit message bodies (contract-state sharding).

A sharded deployment (:mod:`repro.core.sharding`) partitions the contract
namespace across independent cell groups.  The rare transaction whose
access plan spans groups runs as a two-phase commit driven by its
coordinator (the submitting client) against one *gateway* cell per
participant group:

* ``XSHARD_PREPARE`` carries a :class:`CrossShardPrepare`: the cross-shard
  transaction id, the participant set, and this group's *prepare
  transaction* — an ordinary client-signed ``TX_SUBMIT`` envelope (e.g. a
  FastMoney escrow hold) that the gateway services through the group's
  normal admit/forward/confirm pipeline.
* the gateway answers with a signed :class:`CrossShardVote` — ``ok`` iff
  the prepare transaction received a full aggregated receipt.  Votes are
  individually signed statements, like transaction confirmations and
  membership votes, so they are third-party-verifiable evidence.
* ``XSHARD_COMMIT`` carries a :class:`CrossShardDecision` whose
  *certificate* is the complete set of ``ok`` prepare votes; an
  ``XSHARD_ABORT`` decision instead carries at least one verified *no*
  prepare vote as evidence that the commit certificate can never be
  assembled.  A gateway re-verifies the certificate against the
  deployment's shard directory (which cells belong to which group)
  before admitting either decision, and protocol refusals are plain
  errors — never signed votes — so a coordinator cannot launder a
  refusal into abort evidence.  Together the two certificate rules make
  the decisions mutually exclusive: with every participant voting yes
  only commit is provable, with any genuine no vote only abort is, so a
  faulty coordinator cannot commit one side of a transfer while
  aborting the other.  (A coordinator whose yes votes were *lost* can
  prove neither decision; the holds stay escrowed — frozen, never
  duplicated — until it re-drives a decision with fresh evidence.)

The envelope *around* these bodies is signed by the coordinator; the inner
transactions are signed by the paying client, so gateways never need to
trust the coordinator with anyone's funds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..crypto.keys import Address
from . import wire
from .signer import SignedStatement, Signer


class CrossShardError(ValueError):
    """Raised for malformed cross-shard protocol message bodies."""


#: Valid protocol phases a vote can acknowledge.
PHASES = ("prepare", "commit", "abort")


@dataclass(frozen=True)
class CrossShardPrepare(wire.Body, error=CrossShardError, what="cross-shard prepare"):
    """Phase-1 request to one participant group's gateway cell.

    ``transaction`` is the wire form of the inner client-signed
    ``TX_SUBMIT`` envelope implementing this group's share of the
    cross-shard transaction (the *hold*); the gateway services it exactly
    like a directly submitted transaction.
    """

    xtx: str = wire.text()
    group: int = wire.integer()
    participants: tuple[int, ...] = wire.list_of(wire.integer)()
    transaction: dict[str, Any] = wire.obj()

    def __post_init__(self) -> None:
        if not self.xtx:
            raise CrossShardError("a cross-shard transaction needs an id")
        if len(self.participants) < 2:
            raise CrossShardError("a cross-shard transaction spans at least two groups")
        if self.group not in self.participants:
            raise CrossShardError("the addressed group must be a participant")


@dataclass(frozen=True)
class CrossShardVote(SignedStatement, error=CrossShardError, what="cross-shard vote"):
    """A gateway cell's signed verdict on one phase of a cross-shard tx.

    For the prepare phase, ``ok=True`` means this group executed and
    fully confirmed the hold; the signed vote is what the coordinator
    assembles into the commit (or abort) certificate.  The *participant
    set* is part of the signed body, so a vote gathered for one
    transaction shape cannot be replayed into a decision over a
    different set of groups.  Commit/abort phases reuse the same shape
    as acknowledgements.
    """

    KIND = "xshard_vote"
    SIGNER = "voter"
    DATA_KEY = "vote"  # in an ``XSHARD_VOTE`` reply envelope

    voter: Address = wire.address()
    xtx: str = wire.text()
    group: int = wire.integer()
    participants: tuple[int, ...] = wire.list_of(wire.integer)()
    phase: str = wire.text()
    ok: bool = wire.flag()

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise CrossShardError(f"unknown cross-shard phase {self.phase!r}")

    @classmethod
    def create(
        cls, signer: Signer, xtx: str, group: int, participants: tuple[int, ...],
        phase: str, ok: bool,
    ) -> "CrossShardVote":
        """Build and sign a vote on behalf of ``signer``."""
        return cls._signed(
            signer, xtx=xtx, group=group, participants=tuple(participants),
            phase=phase, ok=ok,
        )


@dataclass(frozen=True)
class CrossShardDecision(wire.Body, error=CrossShardError, what="cross-shard decision"):
    """Phase-2 decision (commit or abort) sent to one participant gateway.

    ``transaction`` is this group's inner client-signed settle/credit (on
    commit) or refund/cancel (on abort) envelope; ``votes`` is the
    prepare certificate, re-verified by every receiver against the shard
    directory.  On commit it must contain an ``ok`` vote from a gateway
    cell of *every* participant group; on abort it must contain at least
    one genuine *no* vote — proof that the commit certificate can never
    exist, which is what makes the two decisions mutually exclusive.
    """

    xtx: str = wire.text()
    decision: str = wire.text()
    group: int = wire.integer()
    participants: tuple[int, ...] = wire.list_of(wire.integer)()
    transaction: dict[str, Any] = wire.obj()
    votes: tuple[CrossShardVote, ...] = wire.list_of(wire.nested(CrossShardVote))(default=())

    def __post_init__(self) -> None:
        if self.decision not in ("commit", "abort"):
            raise CrossShardError(f"unknown cross-shard decision {self.decision!r}")
        if self.group not in self.participants:
            raise CrossShardError("the addressed group must be a participant")

    def certificate_error(
        self, directory: Mapping[int, frozenset[Address]]
    ) -> Optional[str]:
        """Why the decision's certificate is invalid (None when it verifies).

        A valid **commit** certificate carries, for every participant
        group, an ``ok`` prepare vote whose signature verifies and whose
        voter is a known cell of that group per the deployment's shard
        ``directory``.  A valid **abort** certificate carries at least
        one such-verified *no* prepare vote from any participant group.
        Since gateways sign a prepare vote only after actually servicing
        the hold (refusals are unsigned errors), the two certificates
        are mutually exclusive for one cross-shard transaction.
        """
        vouched_yes: set[int] = set()
        has_no_vote = False
        for vote in self.votes:
            if vote.xtx != self.xtx or vote.phase != "prepare":
                continue
            if vote.group not in self.participants:
                continue
            if vote.participants != self.participants:
                return (
                    f"vote for group {vote.group} was cast for participant set "
                    f"{list(vote.participants)}, not {list(self.participants)}"
                )
            members = directory.get(vote.group)
            if members is None or vote.voter not in members:
                return f"vote for group {vote.group} is not from a known gateway cell"
            if not vote.verify():
                return f"vote for group {vote.group} carries an invalid signature"
            if vote.ok:
                vouched_yes.add(vote.group)
            else:
                has_no_vote = True
        if self.decision == "commit":
            missing = [group for group in self.participants if group not in vouched_yes]
            if missing:
                return f"commit certificate is missing prepare votes for groups {missing}"
            return None
        if not has_no_vote:
            return "abort certificate carries no verified no-vote"
        return None


#: Phases of the one-way voucher fast path.
VOUCHER_PHASES = ("mint", "redeem")


@dataclass(frozen=True)
class CrossShardVoucher(SignedStatement, error=CrossShardError, what="cross-shard voucher"):
    """A signed, single-use credit voucher minted by a source gateway.

    The fast path for cross-shard transfers whose destination effect is a
    pure increment: the source group executes an escrowed debit
    (``xshard_voucher_mint``) and its gateway signs this voucher over the
    resulting credit.  The destination gateway redeems it as a plain
    increment — no prepare/vote/commit round.  The voucher is
    third-party-verifiable evidence exactly like a :class:`CrossShardVote`:
    the destination re-verifies the issuer against the shard directory
    (a known gateway cell of ``source_group``) before crediting, and the
    redeemed-voucher registry keyed by ``xtx`` makes redemption
    idempotent under duplicate delivery.  A voucher that is never
    redeemed expires with the escrow deadline, after which the source
    holder reclaims the debit — lost vouchers reclaim cleanly.
    """

    KIND = "xshard_voucher"
    SIGNER = "issuer"

    issuer: Address = wire.address()
    xtx: str = wire.text()
    source_group: int = wire.integer()
    target_group: int = wire.integer()
    contract: str = wire.text()
    recipient: str = wire.text()
    amount: int = wire.integer()
    expires_at: float = wire.number()

    def __post_init__(self) -> None:
        if not self.xtx:
            raise CrossShardError("a voucher needs a cross-shard transaction id")
        if self.source_group == self.target_group:
            raise CrossShardError("a voucher must cross group boundaries")

    @classmethod
    def create(
        cls, signer: Signer, xtx: str, source_group: int, target_group: int,
        contract: str, recipient: str, amount: int, expires_at: float,
    ) -> "CrossShardVoucher":
        """Build and sign a voucher on behalf of the minting gateway."""
        return cls._signed(
            signer, xtx=xtx, source_group=source_group, target_group=target_group,
            contract=contract, recipient=recipient, amount=amount, expires_at=expires_at,
        )

    def verify_against(
        self, directory: Mapping[int, frozenset[Address]]
    ) -> Optional[str]:
        """Why the voucher is invalid (None when it verifies).

        The issuer must be a known gateway cell of ``source_group`` per
        the deployment's shard ``directory`` and the signature must
        verify — the voucher analogue of the certificate re-verification
        rule, so a forged voucher is refused before anything credits.
        """
        members = directory.get(self.source_group)
        if members is None or self.issuer not in members:
            return (
                f"voucher issuer is not a known gateway cell of group "
                f"{self.source_group}"
            )
        if not self.verify():
            return "voucher carries an invalid issuer signature"
        return None


def voucher_terms(args: Any) -> tuple[str, str, int, float]:
    """The xtx, recipient, amount and expiry a voucher leg's call arguments name.

    The mint and the redeem call name them alike, and they are what the
    voucher states: the source gateway signs them off its mint call, the
    client rebuilds the voucher from its own and the destination gateway
    from the redeem call.  Arguments that name no credit raise
    :class:`CrossShardError`.
    """
    if type(args) is not dict:
        raise CrossShardError("voucher call arguments must be an object")
    xtx, recipient = args.get("xtx"), args.get("to")
    amount, expires_at = args.get("amount"), args.get("expires_at")
    if type(xtx) is not str or not xtx or type(recipient) is not str:
        raise CrossShardError("a voucher call names its xtx and recipient as text")
    if type(amount) is not int or type(expires_at) not in (int, float):
        raise CrossShardError("a voucher call names an integer amount and a numeric expiry")
    return xtx, recipient, amount, float(expires_at)


@dataclass(frozen=True)
class CompactVoucher(wire.Body, error=CrossShardError, what="compact voucher"):
    """A :class:`CrossShardVoucher` on its way to the destination gateway: what it lacks.

    The redeem's inner transaction states the xtx, the contract, the
    recipient, the amount and the expiry the voucher vouches for, and the
    destination gateway is the target group's; :meth:`voucher` rebuilds the
    signed statement from them, so it verifies only if the issuer signed
    exactly the credit the redeem spends, for this group.
    """

    issuer: Address = wire.address()
    source_group: int = wire.integer()
    signature: bytes = wire.signature()
    #: None: the scheme of the request that carries it.
    scheme: Optional[str] = wire.text(omit_none=True, default=None)

    @classmethod
    def of(cls, voucher: CrossShardVoucher, scheme: str) -> "CompactVoucher":
        """``voucher`` as a request signed with ``scheme`` carries it."""
        return cls(
            voucher.issuer, voucher.source_group, voucher.signature,
            None if voucher.scheme == scheme else voucher.scheme,
        )

    def voucher(
        self, target_group: int, contract: str, args: Any, scheme: str
    ) -> CrossShardVoucher:
        """The voucher the redeem call ``contract``/``args`` spends on ``target_group``.

        ``scheme`` is the carrying request's; arguments that name no credit
        raise :class:`CrossShardError`.
        """
        xtx, recipient, amount, expires_at = voucher_terms(args)
        return CrossShardVoucher(
            issuer=self.issuer, xtx=xtx, source_group=self.source_group,
            target_group=target_group, contract=contract, recipient=recipient,
            amount=amount, expires_at=expires_at, signature=self.signature,
            scheme=scheme if self.scheme is None else self.scheme,
        )


@dataclass(frozen=True)
class CrossShardVoucherTransfer(
    wire.Body, error=CrossShardError, what="cross-shard voucher request"
):
    """One leg of the voucher fast path, sent to a gateway cell.

    ``phase="mint"`` asks the *source* gateway to service the inner
    client-signed ``xshard_voucher_mint`` transaction and, on a full
    receipt, reply with the signature of a :class:`CrossShardVoucher`
    bound to ``target_group``/``target_contract``.  ``phase="redeem"``
    asks the *destination* gateway to rebuild the voucher from the
    attached :class:`CompactVoucher` and the inner
    ``xshard_voucher_redeem`` transaction, verify it against the shard
    directory and service that transaction (idempotent per xtx).  As in
    2PC, the inner state change is always an ordinary client-signed
    ``TX_SUBMIT`` envelope serviced through the group's normal pipeline,
    and it names the cross-shard transaction (``args.xtx``).
    """

    phase: str = wire.text()
    group: int = wire.integer()
    transaction: dict[str, Any] = wire.obj()
    # Each phase sends only its own fields: a mint names its target, a
    # redeem carries the voucher.
    target_group: Optional[int] = wire.integer(omit_none=True, default=None)
    target_contract: Optional[str] = wire.text(omit_none=True, default=None)
    voucher: Optional[CompactVoucher] = wire.nested(CompactVoucher)(
        omit_none=True, default=None
    )

    def __post_init__(self) -> None:
        if self.phase not in VOUCHER_PHASES:
            raise CrossShardError(f"unknown voucher phase {self.phase!r}")
        if self.phase == "mint":
            if self.target_group is None or self.target_contract is None:
                raise CrossShardError(
                    "a voucher mint must name its target group and contract"
                )
        elif self.voucher is None:
            raise CrossShardError("a voucher redeem must carry the voucher")
