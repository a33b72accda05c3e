"""Fault injection for the security scenarios of Section V.

A :class:`FaultPlan` attached to a cell makes it misbehave in controlled
ways so the integration tests and examples can demonstrate that the overlay
consensus detects or tolerates the behaviour:

* **crash** — the cell stops responding entirely (availability analysis,
  missed-deadline exclusion).
* **censor** — the cell silently drops transactions matching a predicate
  (the transaction-filtering attack of Section V-B).
* **tamper_fingerprint** — the cell reports a corrupted snapshot
  fingerprint to the anchor contract (consortium conspiracy / compromised
  cell, Sections V-C and V-D); auditors catch the mismatch.
* **tamper_state** — the cell mutates bContract state outside any
  transaction, so its execution fingerprints diverge from the honest cells.
* **delay** — the cell adds a fixed extra delay to every confirmation
  (deadline-miss exclusion).
* **equivocate** — the cell signs *different* payloads for the same
  logical message to different observers: its anchored snapshot
  fingerprint diverges from the snapshots it serves, and peers receive
  contradictory signed confirmations for the same execution.
* **lying_gateway** — a cell-group gateway forges (corrupted signature,
  always-yes) or withholds its signed 2PC prepare votes, or mints
  fast-path credit vouchers with corrupted signatures; the
  directory-verified certificates must refuse the half-commit (or the
  forged voucher).

Alongside the per-cell switches, this module defines the *scheduled* fault
vocabulary used by the chaos engine (:mod:`repro.chaos`).  Each kind is one
:class:`FaultKind` row of :data:`FAULT_TABLE` — its family, the cell it may
target, its window and ``params`` (how they are validated and how they are
drawn), how it is armed and disarmed, and the recorded event that proves it
fired; the kind sets, the sampler, the runner's injection loop and the
Byzantine attribution all read the row.  A :class:`ScheduledFault` names
one kind, its target cell (by group and cell index), and the simulated time
window it covers, and a :class:`FaultSchedule` is a validated collection of
them.  Both validate their arguments at construction — a schedule naming a
cell that does not exist raises a clear :class:`FaultError` instead of
silently never firing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence, Union

from ..messages.envelope import Envelope

if TYPE_CHECKING:
    import random

    from .cell import BlockumulusCell
    from .sharding import ShardedDeployment

#: Predicate deciding whether a given transaction envelope is censored.
CensorPredicate = Callable[[Envelope], bool]


class FaultError(ValueError):
    """Raised for invalid fault plans or fault schedules."""


@dataclass
class FaultPlan:
    """Misbehaviour switches for one cell (all off by default)."""

    crashed: bool = False
    censor: Optional[CensorPredicate] = None
    tamper_fingerprint: bool = False
    tamper_state: bool = False
    extra_confirm_delay: float = 0.0
    #: Equivocation: the cell anchors a signed fingerprint that differs
    #: from the one backing the snapshots it serves, and signs divergent
    #: confirmations for the same execution to different peers.
    equivocate: bool = False
    #: Lying 2PC gateway: ``"forge"`` replaces every signed prepare vote
    #: with an always-yes vote carrying a corrupted signature;
    #: ``"withhold"`` never answers XSHARD_VOTE prepares at all;
    #: ``"voucher"`` mints fast-path credit vouchers with corrupted
    #: signatures (the destination's directory check must refuse them).
    lying_gateway: Optional[str] = None
    #: Voucher fast path: withhold the minted-voucher reply (the voucher
    #: is lost in flight; the escrowed value must reclaim cleanly).
    drop_voucher: bool = False
    #: Voucher fast path: answer a successful redeem a second time (the
    #: redeemed-voucher registry must make the duplicate a no-op).
    duplicate_voucher: bool = False
    #: Log of faults actually exercised, for assertions in tests.
    events: list[dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.censor is not None and not callable(self.censor):
            raise FaultError("censor must be a callable predicate over envelopes")
        if self.lying_gateway is not None and self.lying_gateway not in LYING_GATEWAY_MODES:
            raise FaultError(
                f"lying_gateway must be None or one of {list(LYING_GATEWAY_MODES)}, "
                f"got {self.lying_gateway!r}"
            )
        if not isinstance(self.extra_confirm_delay, (int, float)) or isinstance(
            self.extra_confirm_delay, bool
        ):
            raise FaultError("extra_confirm_delay must be a number of seconds")
        if self.extra_confirm_delay < 0:
            raise FaultError(
                f"extra_confirm_delay cannot be negative, got {self.extra_confirm_delay!r}"
            )

    def record(self, kind: str, **details: Any) -> None:
        """Remember that a fault path fired."""
        self.events.append({"kind": kind, **details})

    def is_censored(self, envelope: Envelope) -> bool:
        """Whether this cell censors the given transaction."""
        if self.censor is None:
            return False
        censored = bool(self.censor(envelope))
        if censored:
            self.record("censor", tx_id=envelope.payload.hash_hex())
        return censored


def censor_sender(address_hex: str) -> CensorPredicate:
    """Censor every transaction originating from ``address_hex``."""
    normalized = address_hex.lower()

    def predicate(envelope: Envelope) -> bool:
        return envelope.sender.hex().lower() == normalized

    return predicate


def censor_method(contract: str, method: str) -> CensorPredicate:
    """Censor calls to one specific contract method (e.g. dividend withdrawal)."""

    def predicate(envelope: Envelope) -> bool:
        data = envelope.data
        return data.get("contract") == contract and data.get("method") == method

    return predicate


# ----------------------------------------------------------------------
# Scheduled faults (the chaos engine's fault vocabulary)
# ----------------------------------------------------------------------
# Timeline of a scheduled fault (simulated seconds): injections open in
# [FAULTS_START, FAULTS_END], inside the scenario's traffic window, and
# every outage is resolved by RESOLVE_BY so the final report cycle finds
# all cells live and the per-cycle audits can cover every cell.
FAULTS_START = 5.0
FAULTS_END = 20.0
RESOLVE_BY = 45.0

#: Valid ``params['mode']`` values of a ``lying_gateway`` fault.
LYING_GATEWAY_MODES = ("forge", "withhold", "voucher")


class Family(Enum):
    """What the oracle stack owes a kind, in declared order.

    ``RECOVERABLE`` kinds must be *tolerated*: a scenario carrying only
    these passes its whole oracle stack, and the chaos engine's default
    scenario space samples exactly this family as lead kinds.
    ``BYZANTINE`` kinds must be **caught**: their scenarios fail the
    audit, or have the misbehaviour refused at the certificate layer,
    with findings that attribute the fault.  ``VOUCHER`` kinds are
    tolerated delivery faults of the credit-voucher fast path, sampled as
    *extra* draws on top of the lead-kind stratification, never as leads.
    """

    RECOVERABLE = "recoverable"
    BYZANTINE = "byzantine"
    VOUCHER = "voucher"


class Target(Enum):
    """Which cell of a group a kind may be aimed at."""

    ACTIVE = "active"
    STANDBY = "standby"
    GATEWAY = "gateway"

    def indices(self, active: int, standby: int) -> range:
        """The cell indices this target names in a group of ``active`` + ``standby`` cells."""
        if self is Target.STANDBY:
            return range(active, active + standby)
        if self is Target.GATEWAY:
            return range(1)  # repro.core.sharding.GATEWAY_CELL_INDEX
        return range(active)


def _is_number(value: Any) -> bool:
    """A finite number that is not a ``bool`` (``nan < 0`` and ``nan <= nan`` are both false)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


def _is_index(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class Param:
    """One declared key of a kind's ``params``: what it accepts, how it is drawn."""

    name: str
    accepts: Callable[[Any], bool]
    what: str
    #: ``(rng, funded account indices) -> value``; ``None`` for a param the
    #: sampler places itself (the lying mode is stratified over the seed).
    draw: Optional[Callable[[random.Random, Sequence[int]], Any]] = None


def _seconds_up_to(upper: float) -> Param:
    return Param(
        "seconds",
        lambda value: _is_number(value) and value > 0,
        "a positive number of seconds",
        lambda rng, _funded: round(rng.uniform(0.05, upper), 3),
    )


#: ``(rng, drawn at) -> (at, until)``.
WindowDraw = Callable[["random.Random", float], "tuple[float, float]"]


def _resolved_after(shortest: float) -> WindowDraw:
    """A window at least ``shortest`` long that closes by ``RESOLVE_BY``."""
    return lambda rng, at: (at, round(rng.uniform(at + shortest, RESOLVE_BY), 3))


def _healed_before_the_boundary(rng: random.Random, _at: float) -> tuple[float, float]:
    # Unlike a crashed cell, a partitioned cell keeps its report
    # lifecycle: if the cut straddled a report boundary it would anchor a
    # stale-state fingerprint and (correctly) fail the anchor-agreement
    # check.  The cut is therefore redrawn to heal — with margin for the
    # resync + rejoin to settle — well before the first boundary.
    at = round(rng.uniform(FAULTS_START, 13.0), 3)
    return at, round(at + rng.uniform(2.0, 6.0), 3)


# -- how a kind is armed -------------------------------------------------
@dataclass
class ArmSite:
    """Where one scheduled fault lands in one run."""

    deployment: ShardedDeployment
    cell: BlockumulusCell
    fault: ScheduledFault
    #: Account addresses of the scenario, by account index.
    accounts: Sequence[str]
    #: The run's fault log and its ``(cell node, switch) -> the window now
    #: owning that switch`` map, both shared by every site of the run.
    fault_log: list[dict[str, Any]]
    owners: dict[tuple[str, str], ScheduledFault]
    #: What a lifecycle's ``down`` left for its ``up`` (a partition id).
    held: Any = None

    def log(self, action: str, detail: Optional[str] = None, value: Any = None) -> None:
        """Record that an injection step of this fault ran, now."""
        fault = self.fault
        self.fault_log.append(
            {"at": self.deployment.env.now, "kind": fault.kind, "group": fault.group,
             "cell": fault.cell, "action": action, **({} if detail is None else {detail: value})}
        )


def _yes(_site: ArmSite) -> Any:
    return True


def _seconds(site: ArmSite) -> Any:
    return float(site.fault.params["seconds"])


def _censored_account(site: ArmSite) -> Any:
    return site.accounts[site.fault.params["account"]]


def _plan_field(name: str) -> Callable[[ArmSite, Any], None]:
    return lambda site, value: setattr(site.cell.fault, name, value)


def _set_censor(site: ArmSite, account: Optional[str]) -> None:
    site.cell.fault.censor = None if account is None else censor_sender(account)


def _set_skew(site: ArmSite, seconds: float) -> None:
    site.deployment.network.set_node_skew(site.cell.node_name, seconds)


@dataclass(frozen=True)
class Switch:
    """Arm shape: one setting of the target cell, on at ``at``, off at ``until``.

    Overlapping windows of one kind on one cell resolve by *last writer
    wins*: a later window takes the switch over, and the superseded
    window's end does nothing (logged ``<stem>_off_superseded``) instead
    of clobbering the still-open later window.
    """

    stem: str
    apply: Callable[[ArmSite, Any], None]
    on: Callable[[ArmSite], Any] = _yes
    off: Any = False
    #: Fault-log key the on-value is reported under.
    detail: Optional[str] = None

    def start(self, site: ArmSite) -> None:
        value = self.on(site)
        site.owners[site.cell.node_name, self.stem] = site.fault
        self.apply(site, value)
        site.log(f"{self.stem}_on", self.detail, value)

    def stop(self, site: ArmSite) -> None:
        key = (site.cell.node_name, self.stem)
        if site.owners.get(key) is not site.fault:
            site.log(f"{self.stem}_off_superseded")
            return
        del site.owners[key]
        self.apply(site, self.off)
        site.log(f"{self.stem}_off")


@dataclass(frozen=True)
class Latch:
    """Arm shape: a :class:`FaultPlan` field set at ``at`` and never released."""

    field: str
    value: Callable[[ArmSite], Any] = _yes
    detail: Optional[str] = None

    def start(self, site: ArmSite) -> None:
        value = self.value(site)
        setattr(site.cell.fault, self.field, value)
        site.log(site.fault.kind, self.detail, value)


def _crash(site: ArmSite) -> None:
    site.deployment.crash_cell(site.fault.group, site.fault.cell)


def _crash_and_exclude(site: ArmSite) -> None:
    _crash(site)
    site.deployment.exclude_cell(site.fault.group, site.fault.cell)


def _recover(site: ArmSite, _held: Any) -> None:
    site.deployment.recover_cell(site.fault.group, site.fault.cell)


def _cut_off(site: ArmSite) -> int:
    # The cell keeps running — it is only unreachable, which is what
    # distinguishes a network cut from a crash.
    return site.deployment.network.partition([site.cell.node_name])


def _heal(site: ArmSite, partition_id: int) -> None:
    site.deployment.network.heal(partition_id)
    # The rejoined side missed everything admitted during the cut; run the
    # same resync + rejoin pipeline a crashed cell uses to backfill and
    # re-enter the quorum.
    _recover(site, None)


def _activate(site: ArmSite) -> None:
    site.deployment.activate_standby(site.fault.group, site.fault.cell)


@dataclass(frozen=True)
class Lifecycle:
    """Arm shape: deployment-level calls on the target cell's membership.

    ``down`` runs at ``at`` and may return something ``up`` needs at
    ``until`` (a partition id); a kind without a window is a one-way call.
    """

    down_action: str
    down: Callable[[ArmSite], Any]
    up_action: str = ""
    up: Callable[[ArmSite, Any], None] = lambda _site, _held: None
    #: Fault-log key and value reported with ``down`` (a cut logs its members).
    detail: Optional[str] = None
    value: Callable[[ArmSite], Any] = _yes

    def start(self, site: ArmSite) -> None:
        site.held = self.down(site)
        site.log(self.down_action, self.detail, self.value(site))

    def stop(self, site: ArmSite) -> None:
        site.log(self.up_action)
        self.up(site, site.held)


# -- the table -----------------------------------------------------------
@dataclass(frozen=True)
class FaultKind:
    """Everything one scheduled fault kind is, declared once."""

    name: str
    family: Family
    arm: Union[Switch, Latch, Lifecycle]
    target: Target = Target.ACTIVE
    #: How ``(at, until)`` is drawn; ``None`` for a kind that takes no ``until``.
    window: Optional[WindowDraw] = None
    #: Takes the target cell offline for a while (a partitioned cell stays
    #: up but is unreachable, which for scheduling purposes — one outage
    #: per group, donor must stay live — is the same).
    outage: bool = False
    params: tuple[Param, ...] = ()
    #: The :meth:`FaultPlan.record` event that proves the fault *fired*;
    #: ``None`` for a kind whose injection is unconditional (a crash, a
    #: cut, a skew, an activation fires by being armed).
    evidence: Optional[str] = None
    #: Byzantine kinds only: the audit oracle is expected to *fail* (the
    #: anchored kinds); the others are refused at the certificate layer
    #: before anything reaches a ledger, so the audit stays green.
    audit_fails: bool = False

    def draw(
        self,
        rng: random.Random,
        at: float,
        group: int,
        shards: int,
        cells: int,
        funded: Sequence[int],
    ) -> ScheduledFault:
        """One fault of this kind on ``group``, opening at (or redrawn from) ``at``.

        Draws the cell, then the window, then the params: the order is
        what makes a seed's schedule what it is.  In a multi-shard
        deployment an outage spares the group's cross-shard gateway
        (cell 0): a gateway that dies holding an undriven commit decision
        parks value in transit forever.
        """
        if self.target is Target.ACTIVE:
            cell = rng.randrange(1 if self.outage and shards > 1 else 0, cells)
        else:  # the gateway, or the group's first standby
            cell = self.target.indices(cells, 1)[0]
        until: Optional[float] = None
        if self.window is not None:
            at, until = self.window(rng, at)
        params = {
            param.name: param.draw(rng, funded)
            for param in self.params
            if param.draw is not None
        }
        return ScheduledFault(self.name, group, cell, at, until, params)


#: Every fault kind a schedule may carry.  The order and length of the
#: recoverable family are load-bearing: the default scenario space samples
#: its lead kind as ``seed % 7`` over exactly these seven rows.
#:
#: ``crash_recover`` crashes the target at ``at`` and runs the full
#: resync + rejoin recovery at ``until``; ``crash_rejoin`` additionally
#: scripts the consortium exclusion of Section V while the cell is down;
#: ``standby_activate`` bootstraps a provisioned standby cell at ``at``;
#: ``censor_window`` drops one account's transactions on the target cell
#: during ``[at, until)``; ``delay_window`` adds a fixed sub-deadline
#: confirmation delay; ``partition_window`` cuts the target cell off from
#: every other node (peers, clients) at the network layer, then heals the
#: cut and runs the resync + rejoin recovery; ``skew_window`` skews the
#: target cell's scheduling by a fixed per-message latency offset (its
#: clock effectively runs behind its peers').
#:
#: ``tamper_state`` and ``tamper_fingerprint`` switch the corresponding
#: compromised-cell behaviours on at ``at`` (they stay on — tampering is
#: not something a cell undoes); ``equivocate`` makes the cell sign
#: *different* payloads for the same logical message to different
#: observers (anchored fingerprints vs. served snapshots, and per-peer
#: confirmations); ``lying_gateway`` makes a 2PC gateway forge
#: (``params['mode'] = 'forge'``) or withhold (``'withhold'``) its signed
#: XSHARD_VOTE prepare votes, or forge the signatures on the fast-path
#: credit vouchers it mints (``'voucher'``).
#:
#: ``voucher_loss`` withholds minted-voucher replies during
#: ``[at, until)`` (the voucher is lost in flight; the escrow reclaims
#: after its deadline); ``voucher_duplication`` re-delivers successful
#: redeem replies (the redeemed-voucher registry must keep the duplicate
#: a no-op).
FAULT_TABLE: tuple[FaultKind, ...] = (
    FaultKind("crash_recover", Family.RECOVERABLE,
              Lifecycle("crash", _crash, "recover", _recover),
              window=_resolved_after(4.0), outage=True),
    FaultKind("crash_rejoin", Family.RECOVERABLE,
              Lifecycle("crash", _crash_and_exclude, "recover", _recover),
              window=_resolved_after(4.0), outage=True),
    FaultKind("standby_activate", Family.RECOVERABLE, Lifecycle("activate", _activate),
              target=Target.STANDBY),
    FaultKind("censor_window", Family.RECOVERABLE,
              Switch("censor", _set_censor, _censored_account, off=None, detail="account"),
              window=_resolved_after(2.0),
              params=(Param("account", _is_index, "a non-negative account index",
                            lambda rng, funded: rng.choice(funded)),),
              evidence="censor"),
    FaultKind("delay_window", Family.RECOVERABLE,
              Switch("delay", _plan_field("extra_confirm_delay"), _seconds, 0.0, "seconds"),
              window=_resolved_after(2.0), params=(_seconds_up_to(0.4),), evidence="delay"),
    FaultKind("partition_window", Family.RECOVERABLE,
              Lifecycle("partition", _cut_off, "heal", _heal,
                        detail="members", value=lambda site: [site.cell.node_name]),
              window=_healed_before_the_boundary, outage=True),
    FaultKind("skew_window", Family.RECOVERABLE,
              Switch("skew", _set_skew, _seconds, 0.0, "seconds"),
              window=_resolved_after(2.0), params=(_seconds_up_to(0.5),)),
    FaultKind("tamper_state", Family.BYZANTINE, Latch("tamper_state"),
              evidence="tamper_state", audit_fails=True),
    FaultKind("tamper_fingerprint", Family.BYZANTINE, Latch("tamper_fingerprint"),
              evidence="tamper_fingerprint", audit_fails=True),
    FaultKind("equivocate", Family.BYZANTINE, Latch("equivocate"),
              evidence="equivocate", audit_fails=True),
    FaultKind("lying_gateway", Family.BYZANTINE,
              Latch("lying_gateway", lambda site: str(site.fault.params["mode"]), "mode"),
              target=Target.GATEWAY,
              params=(Param("mode", lambda value: value in LYING_GATEWAY_MODES,
                            f"one of {list(LYING_GATEWAY_MODES)}"),),
              evidence="lying_gateway"),
    FaultKind("voucher_loss", Family.VOUCHER,
              Switch("voucher_loss", _plan_field("drop_voucher")),
              target=Target.GATEWAY, window=_resolved_after(2.0), evidence="voucher_loss"),
    FaultKind("voucher_duplication", Family.VOUCHER,
              Switch("voucher_duplication", _plan_field("duplicate_voucher")),
              target=Target.GATEWAY, window=_resolved_after(2.0),
              evidence="voucher_duplication"),
)

_ROWS = {row.name: row for row in FAULT_TABLE}


def fault_kind(name: Any) -> FaultKind:
    """The table row of the kind called ``name``."""
    row = _ROWS.get(name) if isinstance(name, str) else None
    if row is None:
        raise FaultError(f"unknown fault kind {name!r}; known kinds: {sorted(_ROWS)}")
    return row


def _family(family: Family) -> tuple[str, ...]:
    return tuple(row.name for row in FAULT_TABLE if row.family is family)


# Every kind set is a view of the table.
RECOVERABLE_FAULT_KINDS = _family(Family.RECOVERABLE)
BYZANTINE_FAULT_KINDS = _family(Family.BYZANTINE)
VOUCHER_FAULT_KINDS = _family(Family.VOUCHER)
FAULT_KINDS = frozenset(_ROWS)
OUTAGE_KINDS = frozenset(row.name for row in FAULT_TABLE if row.outage)
#: Kinds that require an end-of-window time (``until``).
WINDOWED_KINDS = frozenset(row.name for row in FAULT_TABLE if row.window is not None)


@dataclass(frozen=True)
class ScheduledFault:
    """One fault injection: what, where (group/cell), and when.

    Pure data — the chaos runner (:mod:`repro.chaos.runner`) asks the
    kind's :class:`FaultKind` row to turn it into concrete
    :class:`FaultPlan` flips and deployment crash/recover calls at the
    scheduled simulated times.  All arguments are validated here, against
    what the row declares; the *topology* (does the target cell exist?)
    is validated by :meth:`FaultSchedule.validate_for`, which must be
    called before injection so a schedule can never silently target a
    ghost cell.
    """

    kind: str
    group: int
    cell: int
    at: float
    until: Optional[float] = None
    #: Kind-specific parameters, exactly the keys the row declares (e.g.
    #: ``account`` for ``censor_window``, ``seconds`` for ``delay_window``).
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        row = fault_kind(self.kind)
        if not _is_index(self.group):
            raise FaultError(f"fault group must be a non-negative integer, got {self.group!r}")
        if not _is_index(self.cell):
            raise FaultError(f"fault cell must be a non-negative integer, got {self.cell!r}")
        if not _is_number(self.at) or self.at < 0:
            raise FaultError(f"fault time must be a non-negative number, got {self.at!r}")
        if row.window is not None:
            if self.until is None:
                raise FaultError(f"fault kind {self.kind!r} needs an end time (until)")
            if not _is_number(self.until) or self.until <= self.at:
                raise FaultError(
                    f"fault window must end after it starts ({self.until!r} <= {self.at!r})"
                )
        elif self.until is not None:
            raise FaultError(f"fault kind {self.kind!r} does not take an end time")
        if not isinstance(self.params, dict):
            raise FaultError(f"fault params must be a dict, got {self.params!r}")
        declared = [param.name for param in row.params]
        for key in self.params:
            if key not in declared:
                raise FaultError(
                    f"{self.kind} takes no params[{key!r}] (it declares {declared})"
                )
        for param in row.params:
            if param.name not in self.params:
                raise FaultError(
                    f"{self.kind} needs params[{param.name!r}]: {param.what}"
                )
            if not param.accepts(self.params[param.name]):
                raise FaultError(
                    f"{self.kind} needs {param.what} in params[{param.name!r}], "
                    f"got {self.params[param.name]!r}"
                )

    @property
    def row(self) -> FaultKind:
        """The table row of this fault's kind."""
        return _ROWS[self.kind]

    def to_data(self) -> dict[str, Any]:
        """JSON-serializable form (scenario specs, reports)."""
        data: dict[str, Any] = {
            "kind": self.kind,
            "group": self.group,
            "cell": self.cell,
            "at": self.at,
        }
        if self.until is not None:
            data["until"] = self.until
        if self.params:
            data["params"] = dict(sorted(self.params.items()))
        return data

    @classmethod
    def from_data(cls, data: Any) -> "ScheduledFault":
        """Inverse of :meth:`to_data`: exact JSON types, validated on construction."""
        if not isinstance(data, dict):
            raise FaultError(f"a scheduled fault is a JSON object, got {data!r}")
        missing = [key for key in ("kind", "group", "cell", "at") if key not in data]
        if missing:
            raise FaultError(f"scheduled fault {data!r} is missing {missing}")
        return cls(
            kind=data["kind"],
            group=data["group"],
            cell=data["cell"],
            at=data["at"],
            until=data.get("until"),
            params=data.get("params", {}),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A validated, ordered collection of scheduled faults."""

    faults: tuple[ScheduledFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, ScheduledFault):
                raise FaultError(f"fault schedules hold ScheduledFault objects, not {fault!r}")

    def __iter__(self) -> Iterator[ScheduledFault]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def validate_for(self, shard_count: int, cells_per_group: int, standby_cells: int = 0) -> None:
        """Check every fault targets a cell that actually exists.

        ``cells_per_group`` counts the *active* consortium cells of each
        group; ``standby_cells`` the provisioned standbys beyond them
        (their indices start at ``cells_per_group``).  Which of them a
        kind may be aimed at is its row's :class:`Target`: a standby
        index, the gateway, or any active cell.  Raises a precise
        :class:`FaultError` naming the offending fault — the old
        behaviour (a fault naming a ghost cell just never fired) hid
        scenario-generation bugs.
        """
        for fault in self.faults:
            where = f"{fault.kind} fault at t={fault.at}"
            if not 0 <= fault.group < shard_count:
                raise FaultError(
                    f"{where} targets cell group {fault.group}, but the deployment "
                    f"has {shard_count} group(s)"
                )
            target = fault.row.target
            allowed = target.indices(cells_per_group, standby_cells)
            if fault.cell not in allowed:
                label = target.value
                raise FaultError(
                    f"{where} targets unknown cell {fault.cell} of group {fault.group}, "
                    f"which is not a{'n' if label == 'active' else ''} {label} cell "
                    f"({label} indices are [{allowed.start}, {allowed.stop}))"
                )

    def kinds(self) -> set[str]:
        """The distinct fault kinds this schedule exercises."""
        return {fault.kind for fault in self.faults}

    def without(self, index: int) -> "FaultSchedule":
        """A copy with the ``index``-th fault removed (for shrinking)."""
        if not 0 <= index < len(self.faults):
            raise FaultError(f"no fault with index {index} to remove")
        return FaultSchedule(self.faults[:index] + self.faults[index + 1 :])

    def to_data(self) -> list[dict[str, Any]]:
        """JSON-serializable form."""
        return [fault.to_data() for fault in self.faults]

    @classmethod
    def from_data(cls, data: Any) -> "FaultSchedule":
        """Inverse of :meth:`to_data`."""
        if not isinstance(data, list):
            raise FaultError(f"a fault schedule is a JSON list, got {data!r}")
        return cls(tuple(ScheduledFault.from_data(item) for item in data))
