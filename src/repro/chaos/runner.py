"""Run one chaos scenario and check it against the oracle stack.

:func:`run_scenario` builds the deployment a :class:`ScenarioSpec`
describes, arms the fault injector, drives the mixed multi-contract
workload, and runs through the scenario's report cycles.
:func:`check_scenario` then stacks four oracles on the run:

1. **audit** — every cell of every group passes the paper's per-cycle
   audit and the deployment shard digest closes
   (:func:`repro.audit.oracles.run_audit_oracle`);
2. **conservation** — no FastMoney value appears or vanishes, escrows
   and in-transit cross-shard holds included
   (:func:`repro.audit.oracles.run_conservation_oracle`);
3. **replay** — re-running the identical spec reproduces every artifact
   (ledger digests, per-cycle execution fingerprints, shard digest,
   contract state fingerprints, client-visible outcomes) bit for bit;
4. **differential** — the operations the chaotic run actually committed,
   applied one at a time to fresh contracts by the serial specification
   (:mod:`repro.chaos.spec`: ``contract.invoke`` and nothing else of the
   system), produce the same semantic state (balances, CAS blobs, ballot
   tallies, dividend positions).

The committed set is derived from the *ledgers* (and escrow records for
cross-shard transfers), never from client receipts: under faults a
transaction can execute consortium-wide while its receipt is lost, and
the oracles must judge what the system did, not what one client saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Sequence

from ..audit.oracles import (
    OracleResult,
    fastmoney_instances,
    group_registries,
    harvest_cells,
    harvest_escrows,
    registry_escrows,
    run_audit_oracle,
    run_conservation_oracle,
)
from ..client.sharded import CrossShardResult
from ..client.workload import MixedWorkloadReport, run_mixed_operations
from ..contracts.community.ballot import Ballot
from ..contracts.community.dividend_pool import DividendPool
from ..contracts.registry import ContractRegistry
from ..contracts.system.cas import ContentAddressableStorage
from ..core.faults import ArmSite, ScheduledFault
from ..core.sharding import ShardedDeployment, ShardingError
from .report import ScenarioReport
from .scenario import CHAOS_CONTRACT, ScenarioSpec, sample_scenario
from .spec import apply_committed


@dataclass
class ScenarioRun:
    """Everything one scenario execution produced."""

    spec: ScenarioSpec
    deployment: ShardedDeployment
    workload: MixedWorkloadReport
    #: Timing-free observables for bit-for-bit replay comparison.
    artifacts: dict[str, Any]
    #: Fault injections that actually fired, in order.
    fault_log: list[dict[str, Any]] = field(default_factory=list)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
def _arm_faults(
    deployment: ShardedDeployment,
    spec: ScenarioSpec,
    account_addresses: list[str],
    fault_log: list[dict[str, Any]],
) -> None:
    """Schedule every fault of the spec on the shared simulation clock.

    The schedule was validated against the topology at spec construction;
    here each entry's :class:`~repro.core.faults.FaultKind` row binds it to
    its target — ``call_at`` flips of the cell's
    :class:`~repro.core.faults.FaultPlan`, or deployment
    crash/recover/activate calls.  Injection order at equal timestamps is
    the schedule order — deterministic, hence replayable.
    """
    owners: dict[tuple[str, str], ScheduledFault] = {}
    for fault in spec.faults:
        cell = deployment._group_cell(fault.group, fault.cell)
        site = ArmSite(deployment, cell, fault, account_addresses, fault_log, owners)
        shape = fault.row.arm
        deployment.env.call_at(fault.at, partial(shape.start, site))
        if fault.until is not None:
            deployment.env.call_at(fault.until, partial(shape.stop, site))


def fired_kinds(run: ScenarioRun) -> set[str]:
    """The scheduled fault kinds that provably *fired* during ``run``.

    A kind whose row names ``evidence`` fired when its target cell's
    :class:`~repro.core.faults.FaultPlan` recorded that event (a censor
    window that never met a matching transaction did not); a kind without
    — a crash, a cut, a skew, an activation — fires by being injected.
    """
    fired: set[str] = set()
    for fault in run.spec.faults:
        evidence = fault.row.evidence
        if evidence is None:
            fires = any(entry["kind"] == fault.kind for entry in run.fault_log)
        else:
            cell = run.deployment._group_cell(fault.group, fault.cell)
            fires = any(event["kind"] == evidence for event in cell.fault.events)
        if fires:
            fired.add(fault.kind)
    return fired


# ----------------------------------------------------------------------
# Artifacts (the replay-equality material)
# ----------------------------------------------------------------------
def _result_essence(result: Any) -> Any:
    """A timing-free, comparable digest of one client-visible outcome."""
    if result is None:
        return None
    if isinstance(result, CrossShardResult):
        return (
            "cross",
            result.xtx,
            result.decision,
            result.ok,
            result.in_transit,
            result.error,
        )
    receipt = result.receipt
    return (
        "tx",
        result.tx_id,
        result.ok,
        result.error,
        receipt.fingerprint_hex if receipt is not None else None,
    )


def collect_artifacts(deployment: ShardedDeployment, spec: ScenarioSpec,
                      workload: MixedWorkloadReport) -> dict[str, Any]:
    """Everything two same-seed runs must agree on, bit for bit."""
    cycle = spec.audited_cycle
    ledgers, states = harvest_cells(deployment)
    try:
        shard_digest = deployment.shard_digest(cycle)
    except ShardingError as exc:
        # Cells of a group disagree: the audit oracle reports it as a
        # finding, so the run must still yield its artifacts.
        shard_digest = f"unverifiable: {exc}"
    return {
        "ledgers": ledgers,
        "fingerprints": {
            group.index: tuple(
                group.cells[0].ledger.execution_fingerprints_through(cycle)
            )
            for group in deployment.groups
        },
        "shard_digest": shard_digest,
        "states": states,
        "outcomes": tuple(_result_essence(result) for result in workload.results),
    }


# ----------------------------------------------------------------------
# Running one scenario
# ----------------------------------------------------------------------
def run_scenario(spec: ScenarioSpec) -> ScenarioRun:
    """Execute one scenario: build, inject, drive, settle, snapshot."""
    deployment = ShardedDeployment(spec.config())
    primary = deployment.group(0)
    addresses = [
        primary.make_client_signer(seed).address.hex()
        for seed in spec.account_seeds()
    ]
    fault_log: list[dict[str, Any]] = []
    _arm_faults(deployment, spec, addresses, fault_log)
    workload = run_mixed_operations(
        deployment,
        list(spec.operations),
        spec.account_seeds(),
        base_name=CHAOS_CONTRACT,
        genesis=spec.genesis_overrides(),
        elections=[(eid, list(choices)) for eid, choices in spec.elections],
        horizon=spec.collect_horizon,
        label=f"chaos/{spec.seed}",
        fast_path=spec.fast_path,
    )
    deployment.run(until=spec.end_time)
    artifacts = collect_artifacts(deployment, spec, workload)
    return ScenarioRun(
        spec=spec,
        deployment=deployment,
        workload=workload,
        artifacts=artifacts,
        fault_log=fault_log,
    )


# ----------------------------------------------------------------------
# Committed set (ledger-derived ground truth)
# ----------------------------------------------------------------------
#: Methods that are 2PC phases — reconstructed via escrow pairing instead
#: of per-entry translation.
_XSHARD_METHODS = frozenset(
    {"xshard_reserve", "xshard_settle", "xshard_refund", "xshard_reclaim",
     "xshard_expect", "xshard_credit", "xshard_cancel",
     "xshard_voucher_mint", "xshard_voucher_redeem", "xshard_voucher_reclaim"}
)


def harvest_committed(
    deployment: ShardedDeployment, base_name: str
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """What the run durably committed, straight from the ledgers.

    Returns ``(calls, cross_transfers)``: ``calls`` are the executed
    plain entries in per-group ledger order, each as
    ``{group, sender, contract, method, args, tx_id, timestamp}`` (the
    signed payload's); ``cross_transfers`` are the
    :attr:`~repro.audit.oracles.EscrowPair.transfer` of every legal escrow
    pair that has one — a settled source hold (a commit certificate
    existed), whether or not its target credit has executed yet (that value
    is in transit, and the specification delivers it), or a redeemed
    voucher.  A pair the conservation oracle refuses commits nothing.
    """
    calls: list[dict[str, Any]] = []
    for group in deployment.groups:
        for entry in group.cells[0].ledger:
            if entry.status != "executed":
                continue
            data = entry.envelope.data
            method = data.get("method")
            if method in _XSHARD_METHODS or method == "create_election":
                continue
            calls.append(
                {
                    "group": group.index,
                    "sender": entry.envelope.sender.hex(),
                    "contract": data.get("contract"),
                    "method": method,
                    "args": dict(data.get("args", {})),
                    "tx_id": entry.tx_id,
                    "timestamp": entry.envelope.payload.timestamp,
                }
            )
    cross = [
        transfer
        for pair in harvest_escrows(deployment, base_name).values()
        if (transfer := pair.transfer) is not None
    ]
    return calls, cross


# ----------------------------------------------------------------------
# Semantic state (what the differential oracle compares)
# ----------------------------------------------------------------------
def harvest_semantics(
    registries: Sequence[ContractRegistry], base_name: str
) -> dict[str, Any]:
    """The order-independent application state of a deployment's group
    registries (:func:`~repro.audit.oracles.group_registries`) or the specification's.

    FastMoney balances are summed per account across the application's
    per-group instances and *adjusted for escrowed value*
    (:attr:`~repro.audit.oracles.EscrowPair.adjustment`): a still-held
    hold or an unredeemed voucher logically belongs to its sender, and a
    settled-but-uncredited hold to its recipient — the in-flight states a
    chaotic shutdown can legally leave behind.  CAS, ballot, and dividend-pool state is
    harvested from their semantic key ranges (blob references, tallies
    and votes, invested positions), which are timestamp- and
    transaction-id-free by construction.
    """
    balances: dict[str, int] = {}
    for _group, name, contract in fastmoney_instances(registries):
        if name.split("@s", 1)[0] != base_name:
            continue
        for key, value in contract.store.items("balance/"):
            account = key.split("/", 1)[1]
            balances[account] = balances.get(account, 0) + int(value)
    for pair in registry_escrows(registries, base_name).values():
        if (adjustment := pair.adjustment) is not None:
            owner, amount = adjustment
            balances[owner] = balances.get(owner, 0) + amount

    cas: dict[str, int] = {}
    ballots: dict[str, Any] = {}
    dividends: dict[str, Any] = {}
    for registry in registries:
        for name in registry.names():
            contract = registry.get(name)
            if isinstance(contract, ContentAddressableStorage):
                for key, value in contract.store.items("refs/"):
                    digest = key.split("/", 1)[1]
                    cas[digest] = cas.get(digest, 0) + int(value)
            elif isinstance(contract, Ballot):
                for prefix in ("tally/", "vote/"):
                    for key, value in contract.store.items(prefix):
                        ballots[key] = value
            elif isinstance(contract, DividendPool):
                for key, value in contract.store.items("invested/"):
                    dividends[key] = dividends.get(key, 0) + value
                dividends["total_invested"] = dividends.get(
                    "total_invested", 0
                ) + contract.store.get("total_invested", 0)
    return {
        "balances": {k: v for k, v in sorted(balances.items()) if v != 0},
        "cas": dict(sorted(cas.items())),
        "ballot": dict(sorted(ballots.items())),
        "dividends": dict(sorted(dividends.items())),
    }


# ----------------------------------------------------------------------
# The oracle stack
# ----------------------------------------------------------------------
def run_replay_oracle(run: ScenarioRun) -> OracleResult:
    """Same seed, same spec → byte-identical artifacts."""
    second = run_scenario(run.spec)
    findings = [
        f"artifact {name!r} differs between same-seed runs"
        for name in run.artifacts
        if run.artifacts[name] != second.artifacts[name]
    ]
    return OracleResult(
        oracle="replay",
        passed=not findings,
        findings=findings,
        metrics={"artifacts_compared": len(run.artifacts)},
    )


def differential_findings(
    deployment: ShardedDeployment,
    label: str,
    base_name: str,
    genesis_by_account: dict[str, int],
    elections: Sequence[tuple[str, Sequence[str]]] = (),
) -> tuple[list[str], int, int]:
    """Apply what ``deployment`` committed to the specification and diff the state.

    Returns ``(findings, committed calls, committed cross transfers)``: a
    committed call the specification refuses, and every section of
    semantic state (balances, CAS, ballots, dividends) on which the two
    disagree.
    """
    calls, cross = harvest_committed(deployment, base_name)
    specification, findings = apply_committed(
        label, base_name, genesis_by_account, calls, cross, elections
    )
    ours_by_section = harvest_semantics(group_registries(deployment), base_name)
    theirs_by_section = harvest_semantics([specification], base_name)
    for section, ours in ours_by_section.items():
        theirs = theirs_by_section[section]
        if ours != theirs:
            delta = {
                key: (ours.get(key), theirs.get(key))
                for key in set(ours) | set(theirs)
                if ours.get(key) != theirs.get(key)
            }
            findings.append(
                f"{section} state diverges from the serial specification: {delta}"
            )
    return findings, len(calls), len(cross)


def run_differential_oracle(run: ScenarioRun) -> OracleResult:
    """Chaos run ≡ the serial specification applied to its committed set."""
    accounts = run.workload.accounts
    findings, calls, cross = differential_findings(
        run.deployment,
        f"chaos/{run.spec.seed}",
        CHAOS_CONTRACT,
        {signer.address.hex(): amount for signer, amount in zip(accounts, run.workload.genesis)},
        run.spec.elections,
    )
    return OracleResult(
        oracle="differential",
        passed=not findings,
        findings=findings,
        metrics={"committed_calls": calls, "committed_cross_transfers": cross},
    )


def check_scenario(
    spec: ScenarioSpec,
    replay: bool = True,
) -> tuple["ScenarioRun", list[OracleResult]]:
    """Run a scenario and its full oracle stack.

    Returns the primary run and the oracle results in a fixed order:
    conservation, differential, replay, audit.  The audit oracle runs
    last because it drives the simulation further (auditor traffic);
    artifacts and semantic state are harvested before it.
    """
    run = run_scenario(spec)
    results: list[OracleResult] = []
    results.append(run_conservation_oracle(run.deployment, run.workload.minted))
    results.append(run_differential_oracle(run))
    if replay:
        results.append(run_replay_oracle(run))
    results.append(run_audit_oracle(run.deployment, spec.audited_cycle))
    return run, results


def scenario_report(
    spec: ScenarioSpec,
    replay: bool = True,
    shrink_on_failure: bool = False,
) -> ScenarioReport:
    """Check a scenario and package the outcome as a :class:`ScenarioReport`.

    With ``shrink_on_failure`` a failing scenario's fault schedule is
    bisected to a minimal failing one (:func:`repro.chaos.shrink_faults`)
    and recorded in the report's ``shrunk_spec``.
    """
    run, results = check_scenario(spec, replay=replay)
    passed = all(result.passed for result in results)
    calls, cross = harvest_committed(run.deployment, CHAOS_CONTRACT)
    report = ScenarioReport(
        seed=spec.seed,
        spec=spec.to_data(),
        # A spec the default sampler does not reproduce (shrunk or
        # hand-modified) is honestly labelled: its replay command points
        # at the report's embedded spec instead of the bare seed.
        sampled=(spec == sample_scenario(spec.seed)),
        passed=passed,
        oracles=[result.to_data() for result in results],
        stats={
            "operations": len(spec.operations),
            "faults": len(spec.faults),
            "fault_kinds": sorted(spec.faults.kinds()),
            "fault_kinds_fired": sorted(fired_kinds(run)),
            "fault_events": len(run.fault_log),
            "committed_calls": len(calls),
            "committed_cross_transfers": len(cross),
            "client_ok": run.workload.ok_count,
            "client_unanswered": run.workload.unanswered_count,
        },
    )
    if not passed and shrink_on_failure:
        from .shrink import shrink_faults

        def fails(candidate: ScenarioSpec) -> bool:
            _run, candidate_results = check_scenario(candidate, replay=replay)
            return not all(result.passed for result in candidate_results)

        shrunk, _runs = shrink_faults(spec, fails=fails)
        report.shrunk_spec = shrunk.to_data()
    return report
