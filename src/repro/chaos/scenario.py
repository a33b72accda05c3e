"""Scenario space and seeded scenario sampling for the chaos engine.

A :class:`ScenarioSpec` is a *complete, pure-data* description of one
adversarial end-to-end run: the feature-matrix point (shard count ×
execution lanes × message batching), the mixed multi-contract workload
(:class:`~repro.client.workload.MixedOperation`), and the fault schedule
(:class:`~repro.core.faults.FaultSchedule`).  Everything the runner does
is a deterministic function of the spec, and the spec is a deterministic
function of its integer seed — so ``python -m repro.chaos replay <seed>``
reproduces any corpus run bit for bit.

Sampling is stratified: the matrix point and the leading fault kind are
chosen round-robin from the seed itself (``seed % |matrix|``,
``seed % |kinds|``), while everything else is drawn from named
:mod:`repro.sim.rng` streams derived from the seed.  A contiguous seed
range therefore provably spans the whole matrix and every fault kind —
randomized, but never accidentally unbalanced.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..core.config import DeploymentConfig
from ..core.faults import (
    BYZANTINE_FAULT_KINDS,
    FAULTS_END,
    FAULTS_START,
    LYING_GATEWAY_MODES,
    RECOVERABLE_FAULT_KINDS,
    RESOLVE_BY,
    VOUCHER_FAULT_KINDS,
    FaultKind,
    FaultSchedule,
    ScheduledFault,
    Target,
    fault_kind,
)
from ..client.sharded import ShardedFastMoneyClient
from ..client.workload import MixedOperation
from ..messages.signer import SimulatedSigner
from ..sim.latency import ConstantLatency, fast_test_service_model
from ..sim.rng import SeedSequence


class ScenarioError(ValueError):
    """Raised for malformed scenario specs or spaces."""


#: FastMoney application name every chaos scenario trades on.
CHAOS_CONTRACT = "fastmoney.chaos"
#: The one ballot election chaos scenarios vote in.
CHAOS_ELECTION = ("chaos-e0", ("yes", "no", "abstain"))

# Scenario timeline (simulated seconds).  Setup (election creation)
# happens right after construction and completes well before OPS_START;
# the fault half of the timeline (FAULTS_START, FAULTS_END, RESOLVE_BY)
# is declared beside the fault table in ``repro.core.faults``.
OPS_START = 4.0
OPS_END = 22.0
# Recoveries and standby activations are sampled anywhere inside the
# fault/traffic window.  Earlier corpora pinned them after a QUIESCE_AT
# quiesce point because the rejoin vote compared *state* fingerprints,
# blind to admitted-but-not-yet-executed transactions — a cell readmitted
# under live traffic could silently miss that in-flight window.  The
# rejoin handshake now carries each voter's admitted ledger head and the
# coordinator backfills the gap after readmission (repro.core.recovery),
# so node churn at production load is exactly what the corpus exercises.


@dataclass(frozen=True)
class ScenarioSpace:
    """The axes chaos scenarios are sampled from."""

    shards: tuple[int, ...] = (1, 2, 4)
    lanes: tuple[int, ...] = (1, 4)
    batching: tuple[bool, ...] = (True, False)
    #: Sampled fault kinds — derived from the *single* source of truth in
    #: ``repro.core.faults``, so a kind added there is automatically
    #: sampled here (and a kind misspelled here fails schedule
    #: validation).  Byzantine kinds live in ``BYZANTINE_FAULT_KINDS``
    #: and are deliberately absent: this space's scenarios must *pass*
    #: their oracle stack.
    fault_kinds: tuple[str, ...] = RECOVERABLE_FAULT_KINDS
    consortium_size: int = 2
    min_accounts: int = 5
    max_accounts: int = 8
    #: Unfunded accounts whose transfers must revert (incl. 2PC aborts).
    paupers: int = 1
    min_ops: int = 8
    max_ops: int = 13
    max_faults: int = 3
    report_period: float = 30.0
    #: Full report cycles each scenario runs; the last one is audited.
    cycles: int = 2

    def __post_init__(self) -> None:
        if not self.shards or any(s < 1 for s in self.shards):
            raise ScenarioError("shards axis must list positive shard counts")
        if not self.lanes or any(lane < 1 for lane in self.lanes):
            raise ScenarioError("lanes axis must list positive lane counts")
        if not self.batching:
            raise ScenarioError("batching axis cannot be empty")
        if not self.fault_kinds:
            raise ScenarioError("at least one fault kind is required")
        if self.consortium_size < 2:
            raise ScenarioError("chaos scenarios need at least two cells per group")
        if not 2 <= self.min_accounts <= self.max_accounts:
            raise ScenarioError("account range must satisfy 2 <= min <= max")
        if not 0 <= self.paupers < self.min_accounts - 1:
            raise ScenarioError("paupers must leave at least two funded accounts")
        if not 1 <= self.min_ops <= self.max_ops:
            raise ScenarioError("operation range must satisfy 1 <= min <= max")
        if self.max_faults < 1:
            raise ScenarioError("scenarios carry at least one fault")
        if self.cycles < 2:
            raise ScenarioError("scenarios need at least two report cycles to audit")

    def matrix(self) -> list[tuple[int, int, bool]]:
        """The full (shards, lanes, batching) cartesian product, in order."""
        return [
            (shards, lanes, batching)
            for shards in self.shards
            for lanes in self.lanes
            for batching in self.batching
        ]


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully determined chaos scenario (pure data, JSON round-trips)."""

    seed: int
    shards: int
    lanes: int
    batching: bool
    consortium_size: int
    standby_cells: int
    report_period: float
    cycles: int
    account_count: int
    pauper_accounts: tuple[int, ...]
    operations: tuple[MixedOperation, ...]
    faults: FaultSchedule
    elections: tuple[tuple[str, tuple[str, ...]], ...] = (CHAOS_ELECTION,)
    #: Whether cross-shard transfers take the one-way credit-voucher fast
    #: path when the destination footprint allows it (half the corpus
    #: samples it on, so both the voucher and the 2PC machinery stay
    #: exercised under faults).
    fast_path: bool = False

    def __post_init__(self) -> None:
        if self.account_count < 2:
            raise ScenarioError("a scenario needs at least two accounts")
        for index in self.pauper_accounts:
            if not 0 <= index < self.account_count:
                raise ScenarioError(f"pauper index {index} is not an account")
        for op in self.operations:
            op.validate(self.account_count)
        # Topology validation: a fault naming a ghost cell is an error at
        # spec level, long before anything silently fails to fire.
        self.faults.validate_for(self.shards, self.consortium_size, self.standby_cells)
        for fault in self.faults:
            account = fault.params.get("account")
            if account is not None and not 0 <= account < self.account_count:
                raise ScenarioError(
                    f"{fault.kind} fault targets account {account}, but the "
                    f"scenario has {self.account_count} accounts"
                )

    # -- derived values -------------------------------------------------
    def account_seeds(self) -> list[str]:
        """Deterministic identity seeds of the scenario's accounts."""
        return [f"chaos/{self.seed}/account/{i}" for i in range(self.account_count)]

    def genesis_overrides(self) -> dict[int, int]:
        """Pauper accounts are deliberately unfunded."""
        return {index: 0 for index in self.pauper_accounts}

    @property
    def audited_cycle(self) -> int:
        """The report cycle the oracle stack audits (the last full one)."""
        return self.cycles - 1

    @property
    def end_time(self) -> float:
        """When the run stops: past the last report boundary + anchor lag.

        The margin after the boundary must cover on-chain inclusion of
        every cell's final report (eight cells submitting into ~3-second
        blocks take tens of simulated seconds), or the audit oracle
        correctly flags missing anchors that are merely still in flight.
        """
        return self.cycles * self.report_period + 25.0

    @property
    def collect_horizon(self) -> float:
        """Absolute time to stop waiting for workload replies."""
        return RESOLVE_BY + 10.0

    def config(self) -> DeploymentConfig:
        """The deployment configuration this scenario runs under."""
        return DeploymentConfig(
            consortium_size=self.consortium_size,
            shard_count=self.shards,
            execution_lanes=self.lanes,
            message_batching=self.batching,
            standby_cells=self.standby_cells,
            report_period=self.report_period,
            deployment_id=f"chaos-{self.seed}",
            seed=self.seed,
            signature_scheme="sim",
            service_model=fast_test_service_model(),
            client_cell_latency=ConstantLatency(0.01),
            cell_cell_latency=ConstantLatency(0.005),
            eth_block_interval=3.0,
        )

    def with_faults(self, faults: FaultSchedule) -> "ScenarioSpec":
        """A copy carrying a different fault schedule (shrinking).

        Standby provisioning follows the schedule: a spec whose schedule
        no longer activates any standby stops provisioning them, so a
        shrunk candidate never strands a provisioned-but-dead cell (which
        would fail the audit oracle for reasons unrelated to the fault
        being isolated).
        """
        standby = (
            self.standby_cells
            if any(fault.row.target is Target.STANDBY for fault in faults)
            else 0
        )
        return replace(self, faults=faults, standby_cells=standby)

    # -- serialization --------------------------------------------------
    def to_data(self) -> dict[str, Any]:
        """JSON-serializable form (the reproduction recipe of a report)."""
        return {
            "seed": self.seed,
            "shards": self.shards,
            "lanes": self.lanes,
            "batching": self.batching,
            "consortium_size": self.consortium_size,
            "standby_cells": self.standby_cells,
            "report_period": self.report_period,
            "cycles": self.cycles,
            "account_count": self.account_count,
            "pauper_accounts": list(self.pauper_accounts),
            "operations": [op.to_data() for op in self.operations],
            "faults": self.faults.to_data(),
            "fast_path": self.fast_path,
            "elections": [
                {"election_id": election_id, "choices": list(choices)}
                for election_id, choices in self.elections
            ],
        }

    @classmethod
    def from_data(cls, data: dict[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_data` (validates on construction)."""
        return cls(
            seed=int(data["seed"]),
            shards=int(data["shards"]),
            lanes=int(data["lanes"]),
            batching=bool(data["batching"]),
            consortium_size=int(data["consortium_size"]),
            standby_cells=int(data["standby_cells"]),
            report_period=float(data["report_period"]),
            cycles=int(data["cycles"]),
            account_count=int(data["account_count"]),
            pauper_accounts=tuple(data["pauper_accounts"]),
            operations=tuple(
                MixedOperation.from_data(item) for item in data["operations"]
            ),
            faults=FaultSchedule.from_data(data["faults"]),
            elections=tuple(
                (item["election_id"], tuple(item["choices"]))
                for item in data["elections"]
            ),
            # Absent in pre-voucher reports: those ran pure 2PC.
            fast_path=bool(data.get("fast_path", False)),
        )


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def sample_scenario(seed: int, space: Optional[ScenarioSpace] = None) -> ScenarioSpec:
    """Sample the scenario for ``seed`` from ``space`` (deterministic).

    The matrix point and the leading fault kind are stratified over the
    seed; account mix, operations, and fault placement come from named
    RNG streams derived from the seed, so two seeds never share draws and
    re-sampling a seed is always bit-for-bit stable.
    """
    space = space or ScenarioSpace()
    matrix = space.matrix()
    shards, lanes, batching = matrix[seed % len(matrix)]
    lead_kind = space.fault_kinds[seed % len(space.fault_kinds)]
    # Stratified like the matrix point: every other seed runs its
    # cross-shard transfers over the credit-voucher fast path, so both
    # the voucher and the 2PC machinery face the sampled faults.
    fast_path = seed % 2 == 0
    # One child sequence per scenario: its named streams (accounts,
    # operations, faults) can never collide with another seed's — or
    # with any stream the deployment itself draws.
    seeds = SeedSequence("chaos-scenario").child(str(seed))

    rng = seeds.stream("accounts")
    account_count = rng.randrange(space.min_accounts, space.max_accounts + 1)
    paupers = tuple(range(account_count - space.paupers, account_count))
    funded = [i for i in range(account_count) if i not in paupers]

    operations = _sample_operations(
        seeds.stream("operations"), space, account_count, funded, paupers
    )
    faults, standby_cells = _sample_faults(
        seeds.stream("faults"), space, shards, lead_kind, funded, fast_path
    )
    return ScenarioSpec(
        seed=seed,
        shards=shards,
        lanes=lanes,
        batching=batching,
        consortium_size=space.consortium_size,
        standby_cells=standby_cells,
        report_period=space.report_period,
        cycles=space.cycles,
        account_count=account_count,
        pauper_accounts=paupers,
        operations=tuple(operations),
        faults=faults,
        fast_path=fast_path,
    )


def _sample_operations(rng, space, account_count, funded, paupers):
    """The mixed multi-contract operation list of one scenario."""
    count = rng.randrange(space.min_ops, space.max_ops + 1)
    times = sorted(round(rng.uniform(OPS_START, OPS_END), 3) for _ in range(count))
    election_id, choices = CHAOS_ELECTION
    operations: list[MixedOperation] = []
    voted: set[int] = set()
    for at in times:
        roll = rng.random()
        if roll < 0.55:
            sender = rng.choice(funded)
            to = rng.choice([i for i in range(account_count) if i != sender])
            operations.append(
                MixedOperation(
                    at=at, kind="transfer", sender=sender,
                    args={"to": to, "amount": rng.randrange(1, 10)},
                )
            )
        elif roll < 0.65 and paupers:
            # A doomed transfer: the pauper cannot cover it, so it reverts
            # in-group — or votes *no* and aborts the 2PC when it crosses.
            sender = rng.choice(paupers)
            to = rng.choice([i for i in range(account_count) if i != sender])
            operations.append(
                MixedOperation(
                    at=at, kind="transfer", sender=sender,
                    args={"to": to, "amount": rng.randrange(1, 10)},
                )
            )
        elif roll < 0.8:
            blob = rng.getrandbits(8 * 24).to_bytes(24, "big")
            operations.append(
                MixedOperation(
                    at=at, kind="cas_put", sender=rng.choice(funded),
                    args={"content_hex": "0x" + blob.hex()},
                )
            )
        elif roll < 0.92:
            candidates = [i for i in funded if i not in voted]
            if not candidates:
                candidates = funded
            sender = rng.choice(candidates)
            voted.add(sender)
            operations.append(
                MixedOperation(
                    at=at, kind="vote", sender=sender,
                    args={"election_id": election_id, "choice": rng.choice(choices)},
                )
            )
        else:
            operations.append(
                MixedOperation(
                    at=at, kind="invest", sender=rng.choice(funded),
                    args={"amount": rng.randrange(1, 20)},
                )
            )
    return operations


def _sample_faults(rng, space, shards, lead_kind, funded, fast_path=False):
    """The fault schedule of one scenario (plus the standby provisioning).

    Constraints keeping corpus scenarios *recoverable* (their oracles
    must pass — Byzantine faults, which oracles must catch, are sampled
    by :func:`sample_byzantine_scenario` instead):

    * at most one outage-class fault per cell group, so a live resync
      donor always exists;
    * in a multi-shard scenario outages avoid the group's cross-shard
      gateway (cell 0): a gateway that dies holding an undriven commit
      decision parks value in transit forever, which is a legal state the
      conservation oracle reports but a poor default for a pass-corpus;
    * every outage resolves (recover / activate) before ``RESOLVE_BY``.

    Recoveries and standby activations are deliberately *not* kept clear
    of the traffic window or of each other's crash windows: the rejoin
    handshake carries admitted ledger heads and backfills the in-flight
    gap after readmission, and a rejoiner excludes silent (crashed)
    voters instead of waiting their window out — recovering under
    full-rate traffic is precisely what the corpus is here to exercise.
    """
    kinds = [lead_kind]
    extra = rng.randrange(0, space.max_faults)
    for _ in range(extra):
        kinds.append(space.fault_kinds[rng.randrange(len(space.fault_kinds))])

    faults: list[ScheduledFault] = []
    outage_groups: set[int] = set()
    cells = space.consortium_size
    standby: Optional[tuple[FaultKind, float]] = None
    for kind in kinds:
        row = fault_kind(kind)
        # Drawn before the row is consulted, and consumed even by a kind
        # that is then skipped: the stream position is the corpus's identity.
        at = round(rng.uniform(FAULTS_START, FAULTS_END), 3)
        group = rng.randrange(shards)
        if row.target is Target.STANDBY:
            if standby is None:
                standby = row, round(rng.uniform(FAULTS_START, RESOLVE_BY - 5.0), 3)
            continue
        if row.outage:
            if group in outage_groups:
                continue
            outage_groups.add(group)
        faults.append(row.draw(rng, at, group, shards, cells, funded))
    if standby is not None:
        # Every group is provisioned with the standby, and every standby
        # must join (an unactivated standby is a permanently crashed
        # consortium member as far as the audits care).  Activations may
        # land inside traffic and inside other cells' crash windows: the
        # rejoin handshake backfills in-flight admissions and votes out
        # silent peers, so neither needs to be scheduled around.
        row, base = standby
        faults.extend(
            row.draw(rng, round(base + group, 3), group, shards, cells, funded)
            for group in range(shards)
        )
    # Voucher delivery faults ride along when the fast path is sampled
    # on: about half such scenarios lose or re-deliver vouchers at one
    # group's gateway (the cell that mints and redeems).  These draws
    # come strictly *after* every draw above on the same stream — and the
    # rider's group after its window — so pre-voucher fault schedules
    # stay bit-for-bit identical.
    if fast_path and shards > 1 and rng.random() < 0.5:
        row = fault_kind(VOUCHER_FAULT_KINDS[rng.randrange(len(VOUCHER_FAULT_KINDS))])
        at = round(rng.uniform(FAULTS_START, FAULTS_END), 3)
        fault = row.draw(rng, at, 0, shards, cells, funded)
        faults.append(replace(fault, group=rng.randrange(shards)))
    return FaultSchedule(tuple(faults)), 0 if standby is None else 1


# ----------------------------------------------------------------------
# Byzantine sampling
# ----------------------------------------------------------------------
def _chaos_account_homes(spec: ScenarioSpec) -> list[int]:
    """Home group of each scenario account, computed at *sample* time.

    Chaos deployments run the ``sim`` signature scheme, so an account's
    address — and therefore its home shard — is a pure function of its
    identity seed.  Byzantine sampling exploits this to place faults on
    groups that provably see traffic (and to build guaranteed cross-shard
    pairs) without running anything.
    """
    return [
        ShardedFastMoneyClient.account_home(
            CHAOS_CONTRACT, SimulatedSigner(seed).address, spec.shards
        )
        for seed in spec.account_seeds()
    ]


def _cross_shard_pair(
    spec: ScenarioSpec, homes: list[int]
) -> Optional[tuple[int, int]]:
    """A (funded sender, recipient) pair homed on different groups."""
    paupers = set(spec.pauper_accounts)
    for sender in range(spec.account_count):
        if sender in paupers:
            continue
        for recipient in range(spec.account_count):
            if recipient != sender and homes[recipient] != homes[sender]:
                return sender, recipient
    return None


def sample_byzantine_scenario(
    seed: int, space: Optional[ScenarioSpace] = None
) -> ScenarioSpec:
    """Sample a *must-be-caught* scenario: one Byzantine fault per run.

    The recoverable scenario for ``seed`` keeps its matrix point,
    accounts, and workload, but its fault schedule is replaced by exactly
    one Byzantine fault — stratified round-robin over
    ``BYZANTINE_FAULT_KINDS`` — so an oracle failure is unambiguously
    attributable.  A probe transfer is appended to the workload to make
    the fault provably fire: state tampering needs an execution on the
    target group, and a lying gateway needs a cross-shard prepare to vote
    on.  Single-shard matrix points are widened to two shards for the
    lying-gateway kind (there is no gateway to corrupt otherwise).
    """
    space = space or ScenarioSpace()
    kind = BYZANTINE_FAULT_KINDS[seed % len(BYZANTINE_FAULT_KINDS)]
    base = sample_scenario(seed, space)
    rng = SeedSequence("chaos-byzantine").child(str(seed)).stream("fault")
    at = round(rng.uniform(FAULTS_START, 8.0), 3)

    # Drop the recoverable faults (and any standby provisioning that
    # came with them): the Byzantine fault must be the only adversary.
    # The fast path is pinned off too — a forging/withholding gateway
    # needs the probe to drive a 2PC prepare, not a voucher — and only
    # the voucher-forging mode (below) switches it back on.
    spec = replace(base.with_faults(FaultSchedule(())), fast_path=False)
    params: dict[str, Any] = {}
    if fault_kind(kind).target is Target.GATEWAY:
        if spec.shards == 1:
            spec = replace(spec, shards=2)
        homes = _chaos_account_homes(spec)
        pair = _cross_shard_pair(spec, homes)
        while pair is None:
            # All sampled accounts landed on one shard — grow the account
            # set until a funded cross-shard pair exists.  Existing
            # accounts keep their indices (and pauper status), so the
            # base workload is untouched.
            spec = replace(spec, account_count=spec.account_count + 1)
            homes = _chaos_account_homes(spec)
            pair = _cross_shard_pair(spec, homes)
        sender, recipient = pair
        # The lying cell must be the sender's home gateway (cell 0): that
        # is the cell the 2PC coordinator asks for the source-escrow vote.
        group, cell = homes[sender], 0
        mode = LYING_GATEWAY_MODES[
            (seed // len(BYZANTINE_FAULT_KINDS)) % len(LYING_GATEWAY_MODES)
        ]
        params["mode"] = mode
        if mode == "voucher":
            # Forged vouchers only mint when the probe takes the fast
            # path; its FastMoney redeem footprint is a pure increment,
            # so the classifier provably routes it through the voucher.
            spec = replace(spec, fast_path=True)
    else:
        homes = _chaos_account_homes(spec)
        paupers = set(spec.pauper_accounts)
        sender = next(i for i in range(spec.account_count) if i not in paupers)
        recipient = next(i for i in range(spec.account_count) if i != sender)
        # Target the sender's home group: the probe transfer executes
        # there (its escrow/debit does, even when the pair crosses
        # shards), so a state tamper is guaranteed an execution to latch
        # onto.  Equivocation and fingerprint tampering fire at report
        # boundaries regardless; the probe just thickens the evidence.
        group = homes[sender]
        cell = rng.randrange(spec.consortium_size)
    probe = MixedOperation(
        at=round(rng.uniform(12.0, OPS_END), 3),
        kind="transfer",
        sender=sender,
        args={"to": recipient, "amount": rng.randrange(1, 6)},
    )
    fault = ScheduledFault(kind=kind, group=group, cell=cell, at=at, params=params)
    return replace(
        spec,
        operations=tuple(sorted(spec.operations + (probe,), key=lambda op: op.at)),
        faults=FaultSchedule((fault,)),
    )
