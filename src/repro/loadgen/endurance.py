"""Sustained-load endurance harness over a :class:`ShardedDeployment`.

The burst workloads answer "how fast does a pile of N transactions
drain"; this module answers the paper's actual deployment question —
what a cloud consortium sustains when a large user population submits
*open loop* for hours.  :func:`run_endurance` draws a deterministic
arrival schedule (Poisson or diurnal, from the deployment's seed
streams), assigns every arrival to a user from a simulated population,
submits each transaction at its scheduled instant, and reduces the
outcome to a per-minute time series of throughput, latency percentiles,
queue depth, and shed/revert rates.

Determinism and replay: the schedule, the user draws, the recipients,
and therefore every artifact of the run are pure functions of the
deployment seed and the :class:`EndurancePlan` — summarized in the
:func:`endurance_run_id` digest.  Re-running the same plan on a
same-seed deployment reproduces the run bit for bit
(:func:`collect_endurance_artifacts` is the equality material), which is
how the endurance benchmark proves admission-control shedding is
deterministic rather than racy.

Oracles: a shed arrival is rejected *before* ledger admission, so it
must leave no trace — :func:`endurance_differential` applies the
ledger-derived committed set to the serial specification
(:mod:`repro.chaos.spec`) and compares semantic state, and the conservation oracle
(:func:`~repro.audit.oracles.run_conservation_oracle`) checks no value
was minted or destroyed, sheds present or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..audit.oracles import OracleResult, harvest_cells, run_conservation_oracle
from ..client.client import TransactionResult
from ..client.sharded import CrossShardResult, ShardedFastMoneyClient
from ..client.workload import (
    WorkloadError,
    build_client_pools,
    collect_replies,
    cross_target,
    deploy_genesis,
    validate_cross_rate,
)
from ..core.sharding import ShardedDeployment
from ..crypto.hashing import fast_hash
from ..encoding import canonical_json
from ..sim.events import Event
from ..sim.metrics import SampleSeries
from .arrivals import diurnal_arrivals, poisson_arrivals

#: Deployment base name of the endurance workload's FastMoney instances.
ENDURANCE_CONTRACT = "fastmoney.endurance"

#: Arrival shapes :func:`run_endurance` understands.
ARRIVAL_PROCESSES = ("poisson", "diurnal")


@dataclass(frozen=True)
class EndurancePlan:
    """Parameters of one endurance run (everything the run-id digests).

    ``rate`` is the mean arrival intensity in tx/s for the ``poisson``
    process and the *base* (night) intensity for ``diurnal``, whose
    midday intensity is ``peak_rate``.  ``users`` sizes the simulated
    population each arrival draws its sender from; only users that
    actually appear in the schedule are minted accounts and genesis
    funding, so populations of millions stay cheap.  ``horizon`` is the
    open-loop submission window in simulated seconds and ``drain`` the
    settle window after the last arrival before unanswered transactions
    are written off.
    """

    users: int = 10_000
    process: str = "poisson"
    rate: float = 4.0
    peak_rate: Optional[float] = None
    period: float = 86_400.0
    horizon: float = 1_800.0
    bucket_seconds: float = 60.0
    cross_shard_rate: float = 0.0
    pools: int = 8
    amount: int = 1
    drain: float = 120.0

    def validate(self, deployment: ShardedDeployment) -> None:
        """Raise :class:`WorkloadError` for an unusable plan."""
        if self.process not in ARRIVAL_PROCESSES:
            raise WorkloadError(
                f"unknown arrival process {self.process!r}; known: {ARRIVAL_PROCESSES}"
            )
        if not isinstance(self.users, int) or self.users < 2:
            raise WorkloadError(f"users must be an integer >= 2, got {self.users!r}")
        if self.rate <= 0:
            raise WorkloadError(f"rate must be positive, got {self.rate!r}")
        if self.process == "diurnal":
            if self.peak_rate is None or self.peak_rate < self.rate:
                raise WorkloadError(
                    "a diurnal plan needs peak_rate >= rate, got "
                    f"{self.peak_rate!r} vs {self.rate!r}"
                )
        if self.horizon <= 0 or self.bucket_seconds <= 0:
            raise WorkloadError("horizon and bucket_seconds must be positive")
        if self.horizon < self.bucket_seconds:
            raise WorkloadError("horizon must cover at least one bucket")
        validate_cross_rate(deployment, self.cross_shard_rate)
        if self.pools < 1:
            raise WorkloadError("at least one client pool is required")
        if self.amount < 1:
            raise WorkloadError(f"amount must be a positive integer, got {self.amount!r}")
        if self.drain < 0:
            raise WorkloadError("drain cannot be negative")

    def to_data(self) -> dict[str, Any]:
        """JSON-native form (digested into the run-id, written to BENCH)."""
        return {
            "users": self.users,
            "process": self.process,
            "rate": self.rate,
            "peak_rate": self.peak_rate,
            "period": self.period,
            "horizon": self.horizon,
            "bucket_seconds": self.bucket_seconds,
            "cross_shard_rate": self.cross_shard_rate,
            "pools": self.pools,
            "amount": self.amount,
            "drain": self.drain,
        }


def endurance_run_id(plan: EndurancePlan, deployment: ShardedDeployment) -> str:
    """Deterministic identifier of one (plan, deployment-config) run.

    Digests the plan plus every configuration knob that shapes the run's
    artifacts, so quoting a run-id pins the exact reproduction command —
    rebuild a deployment with the same config and rerun the same plan.
    """
    config = deployment.config
    material = {
        "plan": plan.to_data(),
        "seed": config.seed,
        "consortium_size": config.consortium_size,
        "shard_count": config.shard_count,
        "execution_lanes": config.execution_lanes,
        "message_batching": config.message_batching,
        "max_inflight": config.max_inflight,
        "report_period": config.report_period,
        "signature_scheme": config.signature_scheme,
    }
    return "endure-" + fast_hash(canonical_json.dump_bytes(material)).hex()[:16]


def _recipient(run_id: str, index: int) -> str:
    """A deterministic throwaway recipient address for arrival ``index``."""
    return "0x" + fast_hash(f"{run_id}/recipient/{index}".encode())[-20:].hex()


@dataclass(frozen=True)
class _Arrival:
    """One scheduled submission: who sends what, when, and where."""

    at: float
    user: int
    home: int
    target: Optional[int] = None  # cross-shard destination group, if any

    @property
    def cross(self) -> bool:
        return self.target is not None


@dataclass
class EnduranceReport:
    """Everything observed while running one endurance plan."""

    label: str
    run_id: str
    plan: EndurancePlan
    started_at: float
    schedule: list[_Arrival] = field(default_factory=list)
    #: results[i] is what the client learned about schedule[i]; None when
    #: no reply arrived before the drain window closed.
    results: list[Optional[TransactionResult | CrossShardResult]] = field(
        default_factory=list
    )
    #: Account signers of every user that appears in the schedule.
    accounts: dict[int, Any] = field(default_factory=dict)
    #: Genesis funding per FastMoney instance name (conservation input).
    minted: dict[str, int] = field(default_factory=dict)
    #: Genesis funding per account address (differential-reference input).
    genesis_by_account: dict[str, int] = field(default_factory=dict)
    #: Periodic samples of total admission-queue depth across all cells.
    queue_samples: list[dict[str, float]] = field(default_factory=list)

    @staticmethod
    def outcome_of(result: Optional[TransactionResult | CrossShardResult]) -> str:
        """Classify one client observation: ok / shed / reverted / unanswered."""
        if result is None:
            return "unanswered"
        if result.ok:
            return "ok"
        if isinstance(result, TransactionResult):
            return "shed" if result.shed else "reverted"
        # A shed cross-shard transaction surfaces as an OVERLOADED
        # prepare-phase outcome (the gateway refused the hold itself).
        for outcome in result.prepare.values():
            if outcome.error is not None and outcome.error.startswith("OVERLOADED"):
                return "shed"
        return "reverted"

    def totals(self) -> dict[str, int]:
        """Run-wide outcome counts."""
        counts = {"arrivals": len(self.results), "ok": 0, "shed": 0,
                  "reverted": 0, "unanswered": 0}
        for result in self.results:
            counts[self.outcome_of(result)] += 1
        return counts

    def minute_series(self) -> list[dict[str, Any]]:
        """The per-bucket time series (one row per ``bucket_seconds``).

        Buckets are indexed by *submission* time, so an arrival that
        completes two buckets later still counts where the open-loop
        process emitted it; ``tps`` is committed transactions per second
        and the percentiles cover that bucket's committed latencies.
        """
        buckets = int(round(self.plan.horizon / self.plan.bucket_seconds))
        rows = []
        for index in range(buckets):
            rows.append(
                {
                    "minute": index,
                    "submitted": 0,
                    "ok": 0,
                    "shed": 0,
                    "reverted": 0,
                    "unanswered": 0,
                    "_latencies": SampleSeries(f"{self.label}/m{index}"),
                }
            )
        for arrival, result in zip(self.schedule, self.results):
            index = int((arrival.at - self.started_at) / self.plan.bucket_seconds)
            index = min(index, buckets - 1)
            row = rows[index]
            row["submitted"] += 1
            row[self.outcome_of(result)] += 1
            if result is not None and result.ok:
                row["_latencies"].add(result.latency)
        depth_by_bucket = {
            int(sample["minute"]): sample for sample in self.queue_samples
        }
        for row in rows:
            series = row.pop("_latencies")
            row["tps"] = round(row["ok"] / self.plan.bucket_seconds, 4)
            row["p50"] = round(series.p50(), 4) if len(series) else None
            row["p99"] = round(series.p99(), 4) if len(series) else None
            sample = depth_by_bucket.get(row["minute"])
            row["queue_depth"] = int(sample["inflight"]) if sample else 0
        return rows

    def peak_queue_depth(self) -> int:
        """Largest sampled total admission-queue depth."""
        if not self.queue_samples:
            return 0
        return int(max(sample["inflight"] for sample in self.queue_samples))

    def to_payload(self) -> dict[str, Any]:
        """JSON-native summary (the BENCH_endurance building block)."""
        totals = self.totals()
        committed = [r for r in self.results if r is not None and r.ok]
        latencies = SampleSeries(self.label)
        latencies.extend(result.latency for result in committed)
        payload: dict[str, Any] = {
            "label": self.label,
            "run_id": self.run_id,
            "plan": self.plan.to_data(),
            "totals": totals,
            "series": self.minute_series(),
            "peak_queue_depth": self.peak_queue_depth(),
            "users_active": len(self.accounts),
        }
        if committed:
            payload["throughput_tps"] = round(
                totals["ok"] / self.plan.horizon, 4
            )
            payload["latency_p50_s"] = round(latencies.p50(), 4)
            payload["latency_p99_s"] = round(latencies.p99(), 4)
        return payload


def _plan_schedule(
    deployment: ShardedDeployment, plan: EndurancePlan, start: float
) -> list[_Arrival]:
    """Draw the full deterministic arrival schedule before submitting."""
    seeds = deployment.seeds.child("loadgen")
    arrival_rng = seeds.stream("arrivals")
    population_rng = seeds.stream("population")
    cross_rng = seeds.stream("xshard") if plan.cross_shard_rate > 0.0 else None
    if plan.process == "poisson":
        times = poisson_arrivals(arrival_rng, plan.rate, plan.horizon, start=start)
    else:
        times = diurnal_arrivals(
            arrival_rng,
            plan.rate,
            float(plan.peak_rate or plan.rate),
            plan.horizon,
            period=plan.period,
            start=start,
        )
    shards = deployment.shard_count
    schedule = []
    for at in times:
        user = population_rng.randrange(plan.users)
        home = user % shards
        target = cross_target(cross_rng, plan.cross_shard_rate, home, shards)
        schedule.append(_Arrival(at=at, user=user, home=home, target=target))
    return schedule


def run_endurance(
    deployment: ShardedDeployment,
    plan: EndurancePlan,
    label: Optional[str] = None,
) -> EnduranceReport:
    """Drive one open-loop endurance plan to completion.

    Deploys one genesis-funded FastMoney instance of
    :data:`ENDURANCE_CONTRACT` per cell group (each appearing user is
    funded with exactly the total it will ever send, so any committed
    subset replays in any order — the differential oracle's
    precondition), then submits every scheduled arrival at its instant
    and collects replies until all have arrived or the drain window
    closes.  A sampler process records total admission-queue depth once
    per bucket, which is what lets the endurance benchmark assert
    bounded queues under overload.
    """
    plan.validate(deployment)
    env = deployment.env
    start = env.now
    run_id = endurance_run_id(plan, deployment)
    report = EnduranceReport(
        label=label or f"endurance/{plan.process}/{deployment.shard_count}shards",
        run_id=run_id,
        plan=plan,
        started_at=start,
    )
    report.schedule = _plan_schedule(deployment, plan, start)
    if not report.schedule:
        raise WorkloadError(
            f"plan produced no arrivals (rate {plan.rate} over {plan.horizon}s)"
        )

    # Mint accounts and genesis funding for the users that actually appear.
    shards = deployment.shard_count
    primary = deployment.group(0)
    spend: dict[int, int] = {}
    for arrival in report.schedule:
        spend[arrival.user] = spend.get(arrival.user, 0) + plan.amount
    report.accounts = {
        user: primary.make_client_signer(f"endurance/user/{user}")
        for user in sorted(spend)
    }
    report.minted = deploy_genesis(deployment, ENDURANCE_CONTRACT, [
        {
            report.accounts[user].address.hex(): amount
            for user, amount in sorted(spend.items())
            if user % shards == group
        }
        for group in range(shards)
    ])
    report.genesis_by_account = {
        report.accounts[user].address.hex(): amount
        for user, amount in sorted(spend.items())
    }

    apps = [
        ShardedFastMoneyClient(pool, base_name=ENDURANCE_CONTRACT)
        for pool in build_client_pools(deployment, plan.pools)
    ]
    events: list[Optional[Event]] = [None] * len(report.schedule)

    def submit(index: int, arrival: _Arrival) -> Event:
        return apps[arrival.user % len(apps)].transfer_between(
            arrival.home, arrival.target, _recipient(run_id, index), plan.amount,
            signer=report.accounts[arrival.user],
        )

    def driver() -> Generator[Event, Any, None]:
        for index, arrival in enumerate(report.schedule):
            if arrival.at > env.now:
                yield env.timeout(arrival.at - env.now)
            events[index] = submit(index, arrival)

    def total_inflight() -> int:
        return sum(
            cell.inflight for group in deployment.groups for cell in group.cells
        )

    def sampler() -> Generator[Event, Any, None]:
        while env.now < start + plan.horizon:
            yield env.timeout(plan.bucket_seconds)
            report.queue_samples.append(
                {
                    "minute": float(round((env.now - start) / plan.bucket_seconds) - 1),
                    "time": env.now,
                    "inflight": float(total_inflight()),
                }
            )

    env.process(sampler())
    submissions = env.process(driver())
    env.run(submissions)
    deadline = start + plan.horizon + plan.drain
    report.results = collect_replies(env, events, deadline - env.now)
    return report


def collect_endurance_artifacts(
    deployment: ShardedDeployment, report: EnduranceReport
) -> dict[str, Any]:
    """Everything two same-seed endurance runs must agree on, bit for bit.

    Mirrors the chaos engine's artifact set: per-cell ledger digests and
    contract-state fingerprints, per-arrival outcome essences (including
    which arrivals were shed), per-cell shed counters, and the whole
    per-minute series.  Used by the endurance benchmark's replay check.
    """
    ledgers, states = harvest_cells(deployment)
    admission = {}
    for group in deployment.groups:
        for cell in group.cells:
            stats = cell.statistics()["admission"]
            admission[cell.node_name] = (stats["shed"], stats["peak_inflight"])

    def essence(result: Optional[TransactionResult | CrossShardResult]) -> Any:
        if result is None:
            return None
        if isinstance(result, CrossShardResult):
            return ("cross", result.xtx, result.decision, result.ok, result.error)
        return ("tx", result.tx_id, result.ok, result.shed, result.error)

    return {
        "run_id": report.run_id,
        "ledgers": ledgers,
        "states": states,
        "admission": admission,
        "outcomes": tuple(essence(result) for result in report.results),
        "series": tuple(
            tuple(sorted(row.items())) for row in report.minute_series()
        ),
    }


def run_endurance_conservation(
    deployment: ShardedDeployment, report: EnduranceReport
) -> OracleResult:
    """Conservation oracle over the endurance instances (sheds present)."""
    return run_conservation_oracle(deployment, dict(report.minted))


def endurance_differential(
    deployment: ShardedDeployment, report: EnduranceReport
) -> list[str]:
    """Apply the committed set to the serial specification; return divergences.

    The ledger-derived committed calls are applied one at a time to fresh
    contracts (the chaos differential's application and diff,
    :func:`repro.chaos.runner.differential_findings`).  A shed transaction
    never reached any ledger, so it must appear in the committed set
    exactly never; a committed transaction must apply cleanly and land on
    identical semantic state.
    """
    # Imported here: the chaos engine is ~1 MiB and ~25 ms of imports that a
    # load generator run without its differential oracle (bench/) never needs.
    from ..chaos.runner import differential_findings

    findings, _calls, _cross = differential_findings(
        deployment,
        "endurance",
        ENDURANCE_CONTRACT,
        report.genesis_by_account,
    )
    return findings
