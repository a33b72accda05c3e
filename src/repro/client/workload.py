"""Workload generators mirroring the paper's test harness (Section VI-B).

The paper drives its evaluation from eight client-pool VMs scattered across
regions, generating a fresh random account for every request "to simulate
different clients and avoid potential caching".  The generators here do the
same inside the simulation:

* :func:`run_sequential_transfers` — 500 consecutive FastMoney transfers
  (Fig. 8, one experiment per consortium size).
* :func:`run_burst_cas_uploads` — N simultaneous CAS ``put`` requests
  (Fig. 9).
* :func:`run_burst_transfers` — N simultaneous FastMoney transfers
  (Fig. 10 / the 20,000-transaction headline), optionally with a
  cross-shard share.
* :func:`run_contended_transfers` — N simultaneous transfers with a
  tunable write-conflict rate (the execution-lane benchmark workload).
* :func:`run_mixed_operations` — a scripted multi-contract mix (FastMoney
  transfers incl. cross-shard 2PC, CAS uploads, ballot votes, dividend
  investments) submitted at fixed simulated times (the chaos engine's
  workload shape).

There is one harness for every number of cell groups.  Each generator
takes a :class:`~repro.core.sharding.ShardedDeployment` — or a plain
:class:`~repro.core.deployment.BlockumulusDeployment`, viewed as one
group through ``as_sharded()`` — spreads transaction ``i`` over the groups
round-robin, and returns a :class:`WorkloadReport` with the raw
per-transaction results plus the latency series and throughput figures
the benchmark harness prints.  One group is a parameter value: every home
group is 0 and the cross-shard dial has nobody to cross to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Sequence

from ..contracts.community import FastMoney
from ..core.deployment import BlockumulusDeployment
from ..core.sharding import ShardedDeployment
from ..crypto.hashing import fast_hash
from ..sim.environment import Environment
from ..sim.events import Event
from ..sim.metrics import SampleSeries, ThroughputResult
from .apps import CasClient
from .client import TransactionResult
from .sharded import CrossShardResult, ShardedClient, ShardedFastMoneyClient

#: What every generator accepts; a plain consortium is viewed as one group.
Deployment = BlockumulusDeployment | ShardedDeployment

#: Number of client-pool machines in the paper's harness.
DEFAULT_CLIENT_POOLS = 8

#: How long the (unmeasured) funding phase of a workload may take.
FUNDING_HORIZON = 3_600.0


class WorkloadError(Exception):
    """Raised when a workload cannot complete."""


def _validate_count(count: int, what: str = "count") -> int:
    """Reject zero/negative/non-integer transaction counts up front.

    A bad count used to silently produce an empty burst whose report then
    failed much later (or not at all); workloads now fail fast with a
    clear message instead.
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise WorkloadError(f"{what} must be a positive integer, got {count!r}")
    return count


def _validate_amount(amount: int) -> int:
    """Reject non-positive transfer amounts before signing anything."""
    if not isinstance(amount, int) or isinstance(amount, bool) or amount < 1:
        raise WorkloadError(f"amount must be a positive integer, got {amount!r}")
    return amount


def _validate_rate(rate: float, what: str) -> float:
    """A probability dial must lie in [0, 1]."""
    try:
        value = float(rate)
    except (TypeError, ValueError):
        raise WorkloadError(f"{what} must be a number between 0 and 1, got {rate!r}") from None
    if not 0.0 <= value <= 1.0:
        raise WorkloadError(f"{what} must be between 0 and 1, got {rate!r}")
    return value


def validate_cross_rate(deployment: ShardedDeployment, cross_shard_rate: float) -> float:
    """The cross-shard dial: a probability, and zero unless there is a second group."""
    cross_shard_rate = _validate_rate(cross_shard_rate, "cross_shard_rate")
    if cross_shard_rate > 0.0 and deployment.shard_count < 2:
        raise WorkloadError("cross_shard_rate requires at least two shards")
    return cross_shard_rate


@dataclass
class WorkloadReport:
    """Everything measured while running one workload.

    In-group transactions land in ``results``; cross-shard transfers
    (two-phase or voucher) land in ``cross_results``, which stays empty on
    one cell group.  Failure counts and throughput cover both kinds; the
    latency series are kept apart because the two kinds do different work.
    """

    label: str
    consortium_size: int
    results: list[TransactionResult] = field(default_factory=list)
    cross_results: list[CrossShardResult] = field(default_factory=list)

    @property
    def successes(self) -> list[TransactionResult]:
        """In-group transactions that received a valid aggregated receipt."""
        return [result for result in self.results if result.ok]

    @property
    def failures(self) -> list[TransactionResult]:
        """In-group transactions that reverted or timed out."""
        return [result for result in self.results if not result.ok]

    @property
    def cross_successes(self) -> list[CrossShardResult]:
        """Cross-shard transactions that committed on every participant."""
        return [result for result in self.cross_results if result.ok]

    @property
    def cross_failures(self) -> list[CrossShardResult]:
        """Cross-shard transactions that genuinely failed (aborted).

        In-transit outcomes are excluded: the value provably moved (or
        reclaims under an escrow deadline), the client just never saw the
        final acknowledgement — that is a degraded observation, not a
        failed transfer.
        """
        return [
            result
            for result in self.cross_results
            if not result.ok and not result.in_transit
        ]

    @property
    def cross_in_transit(self) -> list[CrossShardResult]:
        """Cross-shard transactions decided but not fully acknowledged."""
        return [result for result in self.cross_results if result.in_transit]

    @property
    def failure_count(self) -> int:
        """Failed transactions, in-group and cross-shard combined."""
        return len(self.failures) + len(self.cross_failures)

    def latencies(self) -> SampleSeries:
        """Latency series over successful in-group transactions."""
        series = SampleSeries(self.label)
        series.extend(result.latency for result in self.successes)
        return series

    def cross_latencies(self) -> SampleSeries:
        """End-to-end latency series over committed cross-shard transfers."""
        series = SampleSeries(f"{self.label}/cross")
        series.extend(result.latency for result in self.cross_successes)
        return series

    def throughput(self) -> ThroughputResult:
        """Aggregate throughput over all successful transactions (burst workloads)."""
        completed = [*self.successes, *self.cross_successes]
        if not completed:
            raise WorkloadError(f"workload {self.label!r} produced no successful transactions")
        return ThroughputResult(
            operations=len(completed),
            first_start=min(result.submitted_at for result in completed),
            last_end=max(result.completed_at for result in completed),
        )

    def summary(self) -> dict[str, Any]:
        """Headline numbers for the benchmark output (docs/BENCHMARKS.md).

        The keys are the same for every workload and group count (the
        ``cross_shard_*`` counts are 0 on one group); only
        ``cross_latency_p50`` needs a committed cross-shard transfer to
        exist.  Built without assuming any in-group successes — a
        workload run entirely at ``cross_shard_rate=1.0`` has an empty
        in-group latency series, and its percentiles are reported as
        ``None`` rather than raising.
        """
        latencies = self.latencies() if self.successes else None
        throughput = self.throughput()
        summary = {
            "label": self.label,
            "cells": self.consortium_size,
            "transactions": len(self.results) + len(self.cross_results),
            "failures": self.failure_count,
            "latency_p50": latencies.p50() if latencies is not None else None,
            "latency_p90": latencies.p90() if latencies is not None else None,
            "latency_p99": latencies.p99() if latencies is not None else None,
            "latency_max": latencies.max() if latencies is not None else None,
            "makespan": throughput.makespan,
            "throughput_tps": throughput.throughput,
            "cross_shard_transactions": len(self.cross_results),
            "cross_shard_failures": len(self.cross_failures),
            "cross_shard_in_transit": len(self.cross_in_transit),
        }
        if self.cross_successes:
            summary["cross_latency_p50"] = self.cross_latencies().p50()
        return summary


def _new_report(
    figure: str, deployment: ShardedDeployment, count: int, label: Optional[str], **dials: float
) -> WorkloadReport:
    """An empty report; the default label has one format for every group count:
    ``<figure>/<groups>x<cells>cells/<count>tx[/<dial><value>...]``."""
    cells = deployment.config.consortium_size
    parts = [figure, f"{deployment.shard_count}x{cells}cells", f"{count}tx"]
    parts += [f"{name}{value:.2f}" for name, value in dials.items()]
    return WorkloadReport(label=label or "/".join(parts), consortium_size=cells)


def build_client_pools(
    deployment: Deployment, pools: int = DEFAULT_CLIENT_POOLS
) -> list[ShardedClient]:
    """Create client-pool machines spanning every cell group.

    Pool ``i`` signs as ``pool/<i>`` and attaches to cell
    ``i mod consortium_size`` of each group (``pool.client_for(g)`` is its
    per-group client), so the pools are spread round-robin over the cells
    whatever the group count.
    """
    if pools < 1:
        raise WorkloadError("at least one client pool is required")
    deployment = deployment.as_sharded()
    primary = deployment.group(0).deployment
    clients = [
        ShardedClient(
            deployment,
            signer=primary.make_client_signer(f"pool/{index}"),
            service_cell_index=index % primary.consortium_size,
            node_basename=f"client-pool-{index}",
        )
        for index in range(pools)
    ]
    if deployment.config.enforce_subscriptions:
        waiters = [
            inner.subscribe() for client in clients for inner in client.clients
        ]
        deployment.env.run(deployment.env.all_of(waiters))
    return clients


def instance_names(deployment: ShardedDeployment, base_name: str) -> list[str]:
    """Per-group instance names of one sharded application contract."""
    return [
        ShardedFastMoneyClient.instance_name(base_name, group, deployment.shard_count)
        for group in range(deployment.shard_count)
    ]


def collect_replies(
    env: Environment, events: Sequence[Optional[Event]], timeout: float
) -> list[Optional[Any]]:
    """Run the simulation until every event fired or ``timeout`` seconds passed.

    Returns each event's value in order — ``None`` where no reply arrived
    in time (or nothing was submitted); with no time left it only reads
    what already fired.  The one collector behind every generator here
    and the endurance harness.
    """
    done = env.all_of([event for event in events if event is not None])
    if timeout > 0:
        env.run(env.any_of([done, env.timeout(timeout)]))
    return [
        event.value if event is not None and (event.processed or event.triggered) else None
        for event in events
    ]


def _record(
    report: WorkloadReport, env: Environment, events: list[tuple[Event, bool]], horizon: float
) -> None:
    """Collect a burst into ``report``, writing off what the horizon cut short.

    Each event is tagged with whether it is a cross-shard coordination, so
    a timed-out cross-shard transaction is still accounted as one, not
    mislabelled as an in-group failure.
    """
    values = collect_replies(env, [event for event, _is_cross in events], horizon)
    lost = {"ok": False, "submitted_at": env.now - horizon, "completed_at": env.now}
    for value, (_event, is_cross) in zip(values, events):
        if value is None and is_cross:
            value = CrossShardResult(
                xtx="", decision="abort", **lost,
                error="workload horizon exceeded before the cross-shard commit completed",
            )
        elif value is None:
            value = TransactionResult(
                **lost, error="workload horizon exceeded before a reply arrived"
            )
        (report.cross_results if is_cross else report.results).append(value)


def _fresh_recipient(index: int) -> str:
    """A deterministic throwaway recipient address for transfer ``index``."""
    return "0x" + fast_hash(f"recipient/{index}".encode())[-20:].hex()


def _placement(
    index: int, apps: list[ShardedFastMoneyClient]
) -> tuple[int, ShardedFastMoneyClient]:
    """Home group and client pool of transaction ``index``: round-robin over
    the groups first, then over the pools."""
    shards = apps[0].shard_count
    return index % shards, apps[(index // shards) % len(apps)]


def cross_target(
    rng: Optional[random.Random], cross_shard_rate: float, home: int, shards: int
) -> Optional[int]:
    """Draw the cross-shard dial: another group to pay into, or ``None``.

    ``rng`` is ``None`` at a zero rate, so a run without cross-shard
    traffic draws nothing.
    """
    if rng is not None and rng.random() < cross_shard_rate:
        return (home + 1 + rng.randrange(shards - 1)) % shards
    return None


def _fastmoney_pools(
    deployment: ShardedDeployment, pools: int, funding: int
) -> list[ShardedFastMoneyClient]:
    """Client pools with ``funding`` units on every group's FastMoney instance.

    Makes sure each group has its instance of the default FastMoney (one
    group already carries it as the base instance), then runs the funding
    phase (not measured): every pool faucets on every group's instance,
    so any pool can send from any home group.
    """
    for group, name in enumerate(instance_names(deployment, FastMoney.DEFAULT_NAME)):
        if name not in deployment.contract_locations:
            deployment.deploy_contract_instances([FastMoney(name)], group=group)
    apps = [ShardedFastMoneyClient(pool) for pool in build_client_pools(deployment, pools)]
    groups = range(deployment.shard_count)
    faucets = [app.on_group(group).faucet(funding) for app in apps for group in groups]
    for result in collect_replies(deployment.env, faucets, FUNDING_HORIZON):
        if result is None or not result.ok:
            error = "no reply within the funding horizon" if result is None else result.error
            raise WorkloadError(f"pool funding failed: {error}")
    return apps


def _run_until_submission(deployment: ShardedDeployment, submit_at: Optional[float]) -> None:
    """Advance to the pinned submission instant, if one was given."""
    if submit_at is not None:
        if submit_at < deployment.env.now:
            raise WorkloadError(
                f"cannot submit at {submit_at}: setup finished at {deployment.env.now}"
            )
        deployment.run(until=submit_at)


# ----------------------------------------------------------------------
# Fig. 8 — consecutive transfers under normal load
# ----------------------------------------------------------------------
def run_sequential_transfers(
    deployment: Deployment,
    count: int = 500,
    pools: int = DEFAULT_CLIENT_POOLS,
    amount: int = 5,
    label: Optional[str] = None,
    per_transaction_timeout: float = 120.0,
) -> WorkloadReport:
    """Execute ``count`` consecutive FastMoney transfers and measure latency."""
    _validate_count(count)
    _validate_amount(amount)
    deployment = deployment.as_sharded()
    apps = _fastmoney_pools(deployment, pools, amount * count * 2)
    report = _new_report("fig8", deployment, count, label)
    env = deployment.env

    def driver() -> Generator[Event, Any, None]:
        for index in range(count):
            home, app = _placement(index, apps)
            result_event = app.on_group(home).transfer(_fresh_recipient(index), amount)
            guard = env.any_of([result_event, env.timeout(per_transaction_timeout)])
            yield guard
            if result_event.triggered:
                report.results.append(result_event.value)
            else:
                report.results.append(
                    TransactionResult(
                        ok=False,
                        submitted_at=env.now - per_transaction_timeout,
                        completed_at=env.now,
                        error="per-transaction timeout",
                    )
                )

    process = env.process(driver())
    env.run(process)
    return report


# ----------------------------------------------------------------------
# Fig. 9 — simultaneous CAS uploads
# ----------------------------------------------------------------------
def run_burst_cas_uploads(
    deployment: Deployment,
    count: int = 5_000,
    pools: int = DEFAULT_CLIENT_POOLS,
    blob_bytes: int = 64,
    label: Optional[str] = None,
    horizon: float = 3_600.0,
) -> WorkloadReport:
    """Submit ``count`` CAS uploads at the same instant and measure latency.

    Each blob goes to the group that owns its digest (the CAS namespace
    is partitioned by content hash).
    """
    _validate_count(count)
    if blob_bytes < 1:
        raise WorkloadError(f"blob_bytes must be positive, got {blob_bytes!r}")
    deployment = deployment.as_sharded()
    clients = build_client_pools(deployment, pools)
    primary = deployment.group(0).deployment
    report = _new_report("fig9", deployment, count, label)
    rng = deployment.seeds.stream("workload-cas")
    events = []
    for index in range(count):
        client = clients[index % len(clients)]
        content = rng.getrandbits(8 * blob_bytes).to_bytes(blob_bytes, "big")
        # A fresh random account per request, as in the paper's harness.
        signer = primary.make_client_signer(f"cas-account/{index}")
        events.append((CasClient(client).put(content, signer=signer), False))
    _record(report, deployment.env, events, horizon)
    return report


# ----------------------------------------------------------------------
# Fig. 10 — simultaneous FastMoney transfers
# ----------------------------------------------------------------------
def run_burst_transfers(
    deployment: Deployment,
    count: int = 5_000,
    pools: int = DEFAULT_CLIENT_POOLS,
    amount: int = 1,
    label: Optional[str] = None,
    horizon: float = 3_600.0,
    submit_at: Optional[float] = None,
    cross_shard_rate: float = 0.0,
    fast_path: bool = False,
    await_redeem: bool = True,
) -> WorkloadReport:
    """Submit ``count`` FastMoney transfers at the same instant.

    Transaction ``i`` lives on its *home group* ``i mod N`` and is a
    plain transfer on that group's FastMoney instance; with probability
    ``cross_shard_rate`` it instead runs as a two-phase escrow transfer
    to a different group.  ``fast_path`` routes eligible cross transfers
    over the voucher fast path; ``await_redeem=False`` additionally
    completes each one at the asynchronous commit point (voucher
    secured), leaving ``CrossShardResult.redeem`` events for the caller
    to drain.

    ``submit_at`` pins the submission to an absolute simulated time after
    the funding phase.  Experiments that compare two configurations of the
    same workload (e.g. the batched-pipeline ablation) use it so both runs
    sign transactions with identical timestamps and therefore identical
    transaction ids.
    """
    _validate_count(count)
    _validate_amount(amount)
    deployment = deployment.as_sharded()
    cross_shard_rate = validate_cross_rate(deployment, cross_shard_rate)
    apps = _fastmoney_pools(deployment, pools, amount * count * 2)
    _run_until_submission(deployment, submit_at)
    report = _new_report("fig10", deployment, count, label, cross=cross_shard_rate)
    rng = deployment.seeds.stream("workload-xshard") if cross_shard_rate > 0.0 else None
    events = []
    for index in range(count):
        home, app = _placement(index, apps)
        target = cross_target(rng, cross_shard_rate, home, deployment.shard_count)
        event = app.transfer_between(
            home, target, _fresh_recipient(index), amount,
            fast_path=fast_path, await_redeem=await_redeem,
        )
        events.append((event, target is not None))
    _record(report, deployment.env, events, horizon)
    return report


#: Imported by the frozen ``bench/workloads.py``; delete with the next
#: ``benchmark`` PR.
run_sharded_burst_transfers = run_burst_transfers


# ----------------------------------------------------------------------
# Tunable-contention transfers (the execution-lane benchmark workload)
# ----------------------------------------------------------------------
#: Deployment name of the contention workload's FastMoney instance (kept
#: apart from the default "fastmoney" so both can coexist).
CONTENDED_CONTRACT = "fastmoney.contended"


def run_contended_transfers(
    deployment: Deployment,
    count: int = 200,
    conflict_rate: float = 0.0,
    hot_accounts: int = 4,
    pools: int = DEFAULT_CLIENT_POOLS,
    amount: int = 1,
    label: Optional[str] = None,
    horizon: float = 3_600.0,
    submit_at: Optional[float] = None,
    cross_shard_rate: float = 0.0,
) -> WorkloadReport:
    """Submit ``count`` simultaneous transfers with a tunable conflict rate.

    Every transaction normally comes from its own genesis-funded account
    and pays a fresh recipient, so its write set is disjoint from every
    other transaction's and the conflict-aware lane scheduler can run them
    all in parallel.  With probability ``conflict_rate`` a transaction is
    instead sent *from* one of ``hot_accounts`` shared hot accounts — a
    genuine read-modify-write on the hot balance key (the insufficient-funds
    check), which conflicts with every other transfer from the same hot
    account and forces the scheduler to serialize them.

    ``conflict_rate=0`` is the embarrassingly parallel end of the dial,
    ``conflict_rate=1`` with one hot account reproduces the fully serial
    schedule.  The workload funds accounts through genesis balances (no
    measurable funding phase), and ``submit_at`` pins the submission
    instant so runs under different configurations sign byte-identical
    payloads (identical transaction ids), which is what lets the benchmark
    assert ledger/receipt/fingerprint equality across lane counts.

    Contention is an intra-group effect: within each group the dial works
    as above, and across groups the ``cross_shard_rate`` dial turns *cold*
    transfers into two-phase escrow transfers to another group.  The two
    dials draw from separate RNG streams, so the contention draws do not
    depend on the group count or the cross rate.
    """
    _validate_count(count)
    _validate_amount(amount)
    conflict_rate = _validate_rate(conflict_rate, "conflict_rate")
    deployment = deployment.as_sharded()
    cross_shard_rate = validate_cross_rate(deployment, cross_shard_rate)
    if hot_accounts < 1:
        raise WorkloadError("at least one hot account is required")
    shards = deployment.shard_count
    primary = deployment.group(0).deployment

    cold_signers = [
        primary.make_client_signer(f"contention-account/{index}") for index in range(count)
    ]
    hot_signers = [
        primary.make_client_signer(f"contention-hot/{index}") for index in range(hot_accounts)
    ]
    # Genesis funding per instance: cold account i lives on its home
    # group's instance; hot accounts are funded everywhere so intra-group
    # conflicts exist on every shard.
    for group, name in enumerate(instance_names(deployment, CONTENDED_CONTRACT)):
        genesis = {
            signer.address.hex(): amount
            for index, signer in enumerate(cold_signers)
            if index % shards == group
        }
        for signer in hot_signers:
            genesis[signer.address.hex()] = amount * count  # never runs dry
        prototype = FastMoney(
            name, params={"genesis_balances": genesis, "allow_faucet": False}
        )
        deployment.deploy_contract_instances([prototype], group=group)

    apps = [
        ShardedFastMoneyClient(pool, base_name=CONTENDED_CONTRACT)
        for pool in build_client_pools(deployment, pools)
    ]
    contention_rng = deployment.seeds.stream("workload-contention")
    cross_rng = (
        deployment.seeds.stream("workload-xshard") if cross_shard_rate > 0.0 else None
    )
    _run_until_submission(deployment, submit_at)
    report = _new_report(
        "lanes", deployment, count, label, conflict=conflict_rate, cross=cross_shard_rate
    )
    events = []
    for index in range(count):
        home, app = _placement(index, apps)
        hot = contention_rng.random() < conflict_rate
        signer = (
            hot_signers[contention_rng.randrange(hot_accounts)] if hot else cold_signers[index]
        )
        # Hot senders stay in-group: contention is an intra-group effect.
        target = None if hot else cross_target(cross_rng, cross_shard_rate, home, shards)
        event = app.transfer_between(home, target, _fresh_recipient(index), amount, signer=signer)
        events.append((event, target is not None))
    _record(report, deployment.env, events, horizon)
    return report


# ----------------------------------------------------------------------
# Mixed multi-contract operations (the chaos-engine workload)
# ----------------------------------------------------------------------
#: Operation kinds run_mixed_operations understands.
MIXED_OP_KINDS = frozenset({"transfer", "cas_put", "vote", "invest"})


@dataclass(frozen=True)
class MixedOperation:
    """One scripted operation of a mixed multi-contract workload.

    ``sender`` indexes into the account list given to
    :func:`run_mixed_operations`; ``at`` is the absolute simulated
    submission time.  ``args`` are kind-specific:

    * ``transfer`` — ``{"to": <account index>, "amount": int}``; runs as
      a plain in-group transfer when both accounts live on the same cell
      group and as a two-phase cross-shard escrow transfer otherwise;
    * ``cas_put`` — ``{"content_hex": "0x..."}``;
    * ``vote`` — ``{"election_id": str, "choice": str}``;
    * ``invest`` — ``{"amount": int}``.
    """

    at: float
    kind: str
    sender: int
    args: dict[str, Any] = field(default_factory=dict)

    def validate(self, accounts: int) -> None:
        """Raise :class:`WorkloadError` for a malformed operation."""
        if self.kind not in MIXED_OP_KINDS:
            raise WorkloadError(
                f"unknown mixed operation kind {self.kind!r}; "
                f"known kinds: {sorted(MIXED_OP_KINDS)}"
            )
        if not isinstance(self.at, (int, float)) or self.at < 0:
            raise WorkloadError(f"operation time must be non-negative, got {self.at!r}")
        if not isinstance(self.sender, int) or not 0 <= self.sender < accounts:
            raise WorkloadError(
                f"operation sender {self.sender!r} is not an account index "
                f"in [0, {accounts})"
            )
        if self.kind == "transfer":
            to = self.args.get("to")
            if not isinstance(to, int) or not 0 <= to < accounts or to == self.sender:
                raise WorkloadError(
                    f"transfer recipient {to!r} must be a different account index"
                )
            _validate_amount(self.args.get("amount"))
        elif self.kind == "invest":
            _validate_amount(self.args.get("amount"))
        elif self.kind == "cas_put":
            content = self.args.get("content_hex")
            if not isinstance(content, str) or not content.startswith("0x"):
                raise WorkloadError("cas_put needs 0x-hex args['content_hex']")
        elif self.kind == "vote":
            if not self.args.get("election_id") or not self.args.get("choice"):
                raise WorkloadError("vote needs args['election_id'] and args['choice']")

    def to_data(self) -> dict[str, Any]:
        """JSON-serializable form (chaos scenario specs)."""
        return {
            "at": self.at,
            "kind": self.kind,
            "sender": self.sender,
            "args": dict(sorted(self.args.items())),
        }

    @classmethod
    def from_data(cls, data: dict[str, Any]) -> "MixedOperation":
        """Inverse of :meth:`to_data`."""
        return cls(
            at=float(data["at"]),
            kind=str(data["kind"]),
            sender=int(data["sender"]),
            args=dict(data.get("args", {})),
        )


@dataclass
class MixedWorkloadReport:
    """Everything observed while running one mixed workload.

    ``results[i]`` is what the client learned about ``operations[i]`` — a
    :class:`TransactionResult`, a :class:`CrossShardResult`, or ``None``
    when no reply ever arrived before the horizon (e.g. the operation was
    censored).  Client-side outcomes are *observations*, not ground
    truth: under faults a transaction can execute consortium-wide while
    its receipt is lost, so the chaos oracles derive the committed set
    from the ledgers instead.
    """

    label: str
    base_name: str
    operations: list[MixedOperation] = field(default_factory=list)
    results: list[Optional[TransactionResult | CrossShardResult]] = field(
        default_factory=list
    )
    #: Account signers, in index order (accounts[i] is op sender i).
    accounts: list[Any] = field(default_factory=list)
    #: Home cell group of each account under the workload's shard map.
    homes: list[int] = field(default_factory=list)
    #: Genesis balance each account was funded with, by index.
    genesis: list[int] = field(default_factory=list)

    @property
    def ok_count(self) -> int:
        """Operations whose client saw a successful outcome."""
        return sum(1 for result in self.results if result is not None and result.ok)

    @property
    def unanswered_count(self) -> int:
        """Operations whose client never heard back (censored or lost)."""
        return sum(1 for result in self.results if result is None)


def plan_mixed_genesis(
    operations: list[MixedOperation], accounts: int
) -> dict[int, int]:
    """Genesis balances that make every transfer order-independent.

    Funding each account with the *total* it could ever send means any
    subset of the workload's transfers succeeds in any order — which is
    what lets a serial reference execution replay exactly the operations
    a chaotic run committed, without manufacturing insufficient-funds
    divergences that depend on interleaving.  Accounts that send nothing
    get zero (a transfer from such a *pauper* deterministically reverts
    everywhere — the workload's built-in 2PC-abort generator).
    """
    genesis = {index: 0 for index in range(accounts)}
    for op in operations:
        if op.kind == "transfer":
            genesis[op.sender] += int(op.args["amount"])
    return genesis


def run_mixed_operations(
    deployment: Deployment,
    operations: list[MixedOperation],
    account_seeds: list[str],
    base_name: str = "fastmoney.chaos",
    genesis: Optional[dict[int, int]] = None,
    elections: Optional[list[tuple[str, list[str]]]] = None,
    election_closes_at: float = 1_000_000.0,
    pools: int = 4,
    horizon: float = 60.0,
    label: Optional[str] = None,
    fast_path: bool = False,
) -> MixedWorkloadReport:
    """Drive a scripted multi-contract workload over the cell groups.

    Deploys one genesis-funded FastMoney instance of ``base_name`` per
    cell group, creates the given ballot ``elections`` (driving the
    simulation until each is confirmed — a setup phase, exactly like the
    funding phase of the burst workloads), then submits every operation
    at its scheduled time and collects replies until all have arrived or
    the absolute simulated time ``horizon`` passes.  Accounts are minted
    deterministically from ``account_seeds``, so two runs of the same
    script are bit-for-bit identical.

    ``genesis`` overrides the auto-sized funding of
    :func:`plan_mixed_genesis` per account index (e.g. to create paupers
    whose transfers must revert).  The CAS, ballot, and dividend-pool
    operations target the deployment's default system/community
    contracts and route through the shard map like any client traffic.
    """
    if not operations:
        raise WorkloadError("a mixed workload needs at least one operation")
    accounts = len(account_seeds)
    if accounts < 2:
        raise WorkloadError("a mixed workload needs at least two accounts")
    for op in operations:
        op.validate(accounts)

    deployment = deployment.as_sharded()
    primary = deployment.group(0).deployment
    signers = [primary.make_client_signer(seed) for seed in account_seeds]

    funding = plan_mixed_genesis(operations, accounts)
    if genesis is not None:
        funding.update(genesis)
    shards = deployment.shard_count
    instances = instance_names(deployment, base_name)
    homes = [
        ShardedFastMoneyClient.account_home(base_name, signer.address, shards)
        for signer in signers
    ]
    for group, name in enumerate(instances):
        group_genesis = {
            signers[index].address.hex(): amount
            for index, amount in sorted(funding.items())
            if homes[index] == group and amount > 0
        }
        prototype = FastMoney(
            name, params={"genesis_balances": group_genesis, "allow_faucet": False}
        )
        deployment.deploy_contract_instances([prototype], group=group)

    pool_clients = build_client_pools(deployment, pools)

    # Setup phase: elections exist (and are visible consortium-wide)
    # before any vote is submitted.
    for election_id, choices in elections or []:
        event = pool_clients[0].submit(
            "ballot",
            "create_election",
            {
                "election_id": election_id,
                "question": f"chaos/{election_id}",
                "choices": list(choices),
                "closes_at": election_closes_at,
            },
            signer=signers[0],
        )
        deployment.env.run(event)
        result = event.value
        if not result.ok:
            raise WorkloadError(f"creating election {election_id!r} failed: {result.error}")

    report = MixedWorkloadReport(
        label=label or f"mixed/{shards}shards/{len(operations)}ops",
        base_name=base_name,
        operations=list(operations),
        accounts=signers,
        homes=homes,
        genesis=[funding.get(index, 0) for index in range(accounts)],
    )
    env = deployment.env
    events: list[Optional[Event]] = [None] * len(operations)

    def submit(op: MixedOperation) -> Event:
        pool = pool_clients[op.sender % len(pool_clients)]
        signer = signers[op.sender]
        if op.kind == "transfer":
            app = ShardedFastMoneyClient(pool, base_name=base_name)
            return app.transfer(
                signers[op.args["to"]].address, op.args["amount"], signer=signer,
                fast_path=fast_path,
            )
        if op.kind == "cas_put":
            return pool.submit(
                "system.cas", "put", {"content_hex": op.args["content_hex"]}, signer=signer
            )
        if op.kind == "vote":
            return pool.submit(
                "ballot",
                "vote",
                {"election_id": op.args["election_id"], "choice": op.args["choice"]},
                signer=signer,
            )
        # invest
        return pool.submit(
            "dividendpool", "invest", {"amount": op.args["amount"]}, signer=signer
        )

    ordered = sorted(range(len(operations)), key=lambda i: (operations[i].at, i))

    def driver() -> Generator[Event, Any, None]:
        for index in ordered:
            op = operations[index]
            if op.at > env.now:
                yield env.timeout(op.at - env.now)
            events[index] = submit(op)

    process = env.process(driver())
    env.run(process)
    if horizon <= env.now:
        raise WorkloadError(f"horizon {horizon} is not after the last submission ({env.now})")
    report.results = collect_replies(env, events, horizon - env.now)
    return report
