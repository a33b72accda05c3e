"""Byzantine chaos scenarios and the fault-attribution oracle.

Recoverable corpus scenarios must *pass* their oracle stack; Byzantine
scenarios (:func:`repro.chaos.scenario.sample_byzantine_scenario`) must
be *caught*.  This module turns "caught" into a checkable contract:

* every injected Byzantine fault actually fired (its
  :class:`~repro.core.faults.FaultPlan` recorded events);
* a named mechanism caught it —

  - ``caught-by-certificate`` — a lying gateway's forged or withheld
    XSHARD_VOTE never produced a provable decision: the coordinator's
    directory-verified vote check refused it and every touched hold
    stayed escrowed (no settled source hold, no credited target, no
    ok-commit client result — *zero undetected half-commits*).  The
    fast-path variant (``mode='voucher'``) forges the signatures on the
    credit vouchers it mints; the destination gateway's directory check
    refuses them, so no forged voucher ever redeems;
  - ``caught-by-anchor-agreement`` — the cell's anchored snapshot
    fingerprint disagrees with its group (the on-chain agreement check);
  - ``caught-by-audit`` — a per-cell audit finding names the cell
    (snapshot fingerprint mismatch, succession mismatch, replay
    divergence);

* the standard oracles behave exactly as the fault's threat model
  predicts: conservation, differential, and replay pass for **every**
  Byzantine kind (a caught adversary corrupts no committed state and
  never breaks determinism), the audit oracle *fails* for the anchored
  kinds (``tamper_state``, ``tamper_fingerprint``, ``equivocate``) and
  *passes* for ``lying_gateway`` (refused at the certificate layer
  before anything reached a ledger, so there is nothing left to audit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..audit.oracles import EscrowPair, OracleResult, harvest_escrows
from ..client.sharded import CrossShardResult
from ..core.faults import FAULT_TABLE, Family, ScheduledFault
from .runner import ScenarioRun, check_scenario
from .scenario import CHAOS_CONTRACT, ScenarioSpec

#: The mechanisms an attribution may name, in catching order: refused at
#: the certificate layer before commit, caught by the on-chain anchor
#: agreement at the report boundary, or localized by the auditor.
ATTRIBUTION_MECHANISMS = (
    "caught-by-certificate",
    "caught-by-anchor-agreement",
    "caught-by-audit",
)

#: Byzantine kinds whose detection surfaces in the audit oracle (their
#: scenarios are *expected* to fail it).  ``lying_gateway`` is the
#: complement: refused at the certificate layer, audit stays green.
ANCHORED_BYZANTINE_KINDS = frozenset(
    row.name for row in FAULT_TABLE if row.audit_fails
)


@dataclass(frozen=True)
class FaultAttribution:
    """One Byzantine fault, the mechanism that caught it, and the proof."""

    kind: str
    group: int
    cell: int
    node: str
    mechanism: str
    evidence: tuple[str, ...]

    def to_data(self) -> dict[str, Any]:
        """JSON-serializable form (reports, corpus trend files)."""
        return {
            "kind": self.kind,
            "group": self.group,
            "cell": self.cell,
            "node": self.node,
            "mechanism": self.mechanism,
            "evidence": list(self.evidence),
        }


def _attribute_anchored(
    run: ScenarioRun,
    fault: ScheduledFault,
    node: str,
    audit: OracleResult,
    findings: list[str],
) -> Optional[FaultAttribution]:
    """Attribute a tamper/equivocation fault via the audit findings."""
    anchor_lines = tuple(
        line
        for line in audit.findings
        if "fingerprints disagree" in line and node in line
    )
    if anchor_lines:
        return FaultAttribution(
            kind=fault.kind, group=fault.group, cell=fault.cell, node=node,
            mechanism="caught-by-anchor-agreement", evidence=anchor_lines,
        )
    audit_lines = tuple(
        line for line in audit.findings if f"cell {node} " in line
    )
    if audit_lines:
        return FaultAttribution(
            kind=fault.kind, group=fault.group, cell=fault.cell, node=node,
            mechanism="caught-by-audit", evidence=audit_lines,
        )
    findings.append(
        f"{fault.kind} on {node} fired, but no audit finding names the cell "
        f"(undetected Byzantine behaviour)"
    )
    return None


#: What each executed commit leg of a lied-about transaction proves
#: (:attr:`~repro.audit.oracles.EscrowPair.commit_legs`), ``{mode}`` the lie.
_UNDETECTED = {
    "settled": "source hold settled despite a {mode}d vote",
    "credited": "target credited despite a {mode}d vote",
    "redeemed": "target redeemed a voucher whose signature never verified "
    "against the directory",
}


def _attribute_lying_gateway(
    run: ScenarioRun,
    fault: ScheduledFault,
    node: str,
    events: list[dict[str, Any]],
    findings: list[str],
) -> Optional[FaultAttribution]:
    """Attribute a lying gateway via the certificate layer's refusal.

    The proof is *ledger-derived*, not client-derived: for every
    cross-shard transaction the gateway lied about, no source hold may
    have settled and no target credit may have executed anywhere — a
    commit certificate over a forged or missing vote must be
    unassemblable.  Client-visible outcomes are cross-checked on top.
    """
    mode = str(fault.params["mode"])
    lied = {event["xtx"] for event in events if event.get("xtx")}
    escrows = harvest_escrows(run.deployment, CHAOS_CONTRACT)
    undetected: list[str] = []
    for xtx in sorted(lied):
        for leg in escrows.get(xtx, EscrowPair(xtx)).commit_legs:
            undetected.append(f"xtx {xtx}: {_UNDETECTED[leg].format(mode=mode)}")
    committed_results = [
        result
        for result in run.workload.results
        if isinstance(result, CrossShardResult)
        and result.xtx in lied
        and result.ok
        and result.decision == "commit"
    ]
    for result in committed_results:
        undetected.append(
            f"xtx {result.xtx}: client saw an ok commit despite a {mode}d vote"
        )
    if undetected:
        findings.extend(undetected)
        return None
    if mode == "voucher":
        forged = run.deployment.metrics.counter(
            f"{node}/xshard_vouchers_forged"
        )
        evidence = [
            f"{node} forged the signature on {len(events)} credit "
            f"voucher(s) (metric {node}/xshard_vouchers_forged={forged:g})",
        ]
    else:
        lies_counted = run.deployment.metrics.counter(
            f"{node}/xshard_votes_{mode}d"
        )
        evidence = [
            f"{node} {mode}d {len(events)} XSHARD_VOTE prepare vote(s) "
            f"(metric {node}/xshard_votes_{mode}d={lies_counted:g})",
        ]
    for xtx in sorted(lied):
        result = next(
            (
                r
                for r in run.workload.results
                if isinstance(r, CrossShardResult) and r.xtx == xtx
            ),
            None,
        )
        if result is not None:
            evidence.append(
                f"xtx {xtx}: decision={result.decision!r} ok={result.ok} "
                f"error={result.error!r}"
            )
        status = escrows.get(xtx, EscrowPair(xtx)).source_status
        if status is not None:
            evidence.append(f"xtx {xtx}: source hold status={status!r}")
    refusals = sum(
        run.deployment.metrics.counter(
            f"{cell.node_name}/xshard_certificate_refusals"
        )
        for group in run.deployment.groups
        for cell in group.cells
    )
    if refusals:
        evidence.append(f"gateways refused {refusals:g} uncertified decision(s)")
    voucher_refusals = sum(
        run.deployment.metrics.counter(
            f"{cell.node_name}/xshard_voucher_refusals"
        )
        for group in run.deployment.groups
        for cell in group.cells
    )
    if voucher_refusals:
        evidence.append(
            f"gateways refused {voucher_refusals:g} voucher(s) whose "
            f"signatures failed the directory check"
        )
    return FaultAttribution(
        kind=fault.kind, group=fault.group, cell=fault.cell, node=node,
        mechanism="caught-by-certificate", evidence=tuple(evidence),
    )


def attribute_byzantine_faults(
    run: ScenarioRun, audit: OracleResult
) -> OracleResult:
    """The attribution oracle: every Byzantine fault fired *and* was caught.

    Passes when each injected Byzantine fault has a
    :class:`FaultAttribution` naming its catching mechanism; fails when a
    fault never fired (the scenario did not exercise it) or when no
    mechanism caught it (an undetected adversary — the worst outcome a
    chaos corpus can report).
    """
    findings: list[str] = []
    attributions: list[FaultAttribution] = []
    byzantine = [
        fault for fault in run.spec.faults if fault.row.family is Family.BYZANTINE
    ]
    for fault in byzantine:
        cell = run.deployment._group_cell(fault.group, fault.cell)
        events = [
            event for event in cell.fault.events if event["kind"] == fault.row.evidence
        ]
        if not events:
            findings.append(
                f"{fault.kind} fault on {cell.node_name} (group {fault.group} "
                f"cell {fault.cell}) never fired — the scenario does not "
                f"exercise it"
            )
            continue
        if fault.row.audit_fails:
            attribution = _attribute_anchored(
                run, fault, cell.node_name, audit, findings
            )
        else:
            attribution = _attribute_lying_gateway(
                run, fault, cell.node_name, events, findings
            )
        if attribution is not None:
            attributions.append(attribution)
    return OracleResult(
        oracle="attribution",
        passed=not findings and len(attributions) == len(byzantine),
        findings=findings,
        metrics={
            "byzantine_faults": len(byzantine),
            "attributed": len(attributions),
            "attributions": [attribution.to_data() for attribution in attributions],
        },
    )


def check_byzantine_scenario(
    spec: ScenarioSpec,
    replay: bool = True,
) -> tuple[ScenarioRun, list[OracleResult]]:
    """Run a Byzantine scenario: the standard stack plus attribution.

    Returns the run and the oracle results in the standard order
    (conservation, differential, replay, audit) with the attribution
    oracle appended.  Use :func:`byzantine_verdict` to check the results
    against the per-kind expectations.
    """
    run, results = check_scenario(spec, replay=replay)
    audit = next(result for result in results if result.oracle == "audit")
    results.append(attribute_byzantine_faults(run, audit))
    return run, results


def byzantine_verdict(spec: ScenarioSpec, results: list[OracleResult]) -> list[str]:
    """Problems with a Byzantine run's oracle outcomes (empty = as expected).

    A caught adversary leaves conservation, the differential, and replay
    green; the audit oracle must fail exactly for the anchored kinds; and
    the attribution oracle must have named a mechanism for every fault.
    """
    problems: list[str] = []
    by_name = {result.oracle: result for result in results}
    for name in ("conservation", "differential", "replay"):
        result = by_name.get(name)
        if result is not None and not result.passed:
            problems.append(
                f"{name} oracle failed on a Byzantine scenario (the adversary "
                f"corrupted committed state): {result.findings}"
            )
    audit = by_name["audit"]
    expects_audit_failure = bool(spec.faults.kinds() & ANCHORED_BYZANTINE_KINDS)
    if expects_audit_failure and audit.passed:
        problems.append(
            "audit oracle passed, but an anchored Byzantine fault "
            f"({sorted(spec.faults.kinds())}) must be caught by it"
        )
    if not expects_audit_failure and not audit.passed:
        problems.append(
            "audit oracle failed on a certificate-layer scenario — a lying "
            f"gateway must never corrupt auditable state: {audit.findings}"
        )
    attribution = by_name["attribution"]
    if not attribution.passed:
        problems.extend(attribution.findings)
    return problems
