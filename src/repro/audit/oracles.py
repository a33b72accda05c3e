"""Composable audit oracles over a (sharded) deployment.

The paper's auditors (:mod:`repro.audit.auditor`) answer one question each
about one cell.  The chaos engine (:mod:`repro.chaos`) needs to ask *many*
questions about a whole deployment after an adversarial run and combine
the answers into one machine-checkable verdict — an *oracle stack*.  This
module provides the shared vocabulary:

* :class:`OracleResult` — one oracle's verdict: name, pass/fail, findings.
* :func:`run_audit_oracle` — the paper's audits as an oracle: every cell
  of every group passes its per-cycle audit, and the deployment-level
  shard digest recomputes (optionally against a published digest and
  fingerprint history, which localizes tampering to a group and cycle).
* :class:`EscrowPair` — the one reading of a cross-shard transaction's
  (source, target) escrow records, for every oracle that needs one.
* :func:`run_conservation_oracle` — value conservation over every
  FastMoney-family instance: per-instance ``balances + held escrow ==
  supply``, cross-shard escrow pairs in legal states (a credit without a
  settled source hold is minted value; a redeemed voucher whose source
  was reclaimed is a double spend), and the global ``minted == supply +
  in-transit`` identity.

Oracles never use privileged state access to *decide* — the audit oracle
talks to cells over the signed message interface exactly as the paper's
auditors do; the conservation oracle reads contract stores directly, which
is sound because every store it reads is first covered by the audit
oracle's fingerprint checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..contracts.community.fastmoney import FastMoney
from ..contracts.registry import ContractRegistry
from ..core.sharding import ShardedDeployment
from .auditor import ShardedAuditor


@dataclass
class OracleResult:
    """One oracle's verdict about one deployment run."""

    oracle: str
    passed: bool
    #: Human-readable findings; empty when the oracle passed.
    findings: list[str] = field(default_factory=list)
    #: Oracle-specific headline numbers (coverage counters, totals).
    metrics: dict[str, Any] = field(default_factory=dict)

    def to_data(self) -> dict[str, Any]:
        """JSON-serializable form (scenario reports)."""
        return {
            "oracle": self.oracle,
            "passed": self.passed,
            "findings": list(self.findings),
            "metrics": dict(sorted(self.metrics.items())),
        }


# ----------------------------------------------------------------------
# The paper's audits, composed over every group
# ----------------------------------------------------------------------
def run_audit_oracle(
    deployment: ShardedDeployment,
    cycle: int,
    published_digest: Optional[str] = None,
    published_fingerprints: Optional[list[list[str]]] = None,
) -> OracleResult:
    """Every cell passes its cycle audit and the shard digest closes.

    Wraps :meth:`ShardedAuditor.run_sharded_audit` (which drives the
    simulation) into an :class:`OracleResult`.  ``published_digest`` /
    ``published_fingerprints`` compare the deployment against a
    commitment recorded earlier; a mismatch is localized to the offending
    group and cycle when the fingerprint history is available.
    """
    findings: list[str] = []
    # Anchor agreement (Sections V-C/V-D): within each group, every cell
    # that anchored a report for a cycle must have anchored the *same*
    # fingerprint.  This is the public, cross-cell check that catches a
    # state-tampering cell even in the very first cycle, where the
    # per-cell succession audit has no predecessor snapshot to replay
    # from (a compromised cell is perfectly self-consistent — only the
    # comparison against its honest peers exposes it).  It runs first
    # and needs no cell cooperation, so its verdict survives even when a
    # cell is unreachable and aborts the interactive audits below.
    anchored_cycles = 0
    for group in deployment.groups:
        for check_cycle in range(cycle + 1):
            anchors = {
                cell_index: anchored
                for cell_index in range(len(group.cells))
                if (anchored := group.anchored_report(check_cycle, cell_index))
                is not None
            }
            anchored_cycles += bool(anchors)
            if len(set(anchors.values())) > 1:
                counts: dict[bytes, int] = {}
                for value in anchors.values():
                    counts[value] = counts.get(value, 0) + 1
                top = max(counts.values())
                majority = [value for value, count in counts.items() if count == top]
                if len(majority) == 1:
                    outliers = sorted(
                        group.cells[index].node_name
                        for index, value in anchors.items()
                        if value != majority[0]
                    )
                    findings.append(
                        f"[group {group.index}] cycle {check_cycle}: anchored "
                        f"snapshot fingerprints disagree — {', '.join(outliers)} "
                        f"diverge(s) from the group majority"
                    )
                else:
                    # No majority (e.g. a 2-cell group split 1–1): the
                    # anchors prove *someone* tampered but cannot say
                    # who — name every side rather than coin-flipping an
                    # outlier; the succession audit assigns blame.
                    sides = ", ".join(
                        f"{group.cells[index].node_name}="
                        f"0x{value.hex()[:16]}..."
                        for index, value in sorted(anchors.items())
                    )
                    findings.append(
                        f"[group {group.index}] cycle {check_cycle}: anchored "
                        f"snapshot fingerprints disagree with no majority — {sides}"
                    )

    auditor = ShardedAuditor(deployment)
    audited_cells = 0
    checked_transactions = 0
    shard_digest = None
    try:
        outcome = auditor.run_sharded_audit(
            cycle,
            published_digest=published_digest,
            published_fingerprints=published_fingerprints,
        )
    except Exception as exc:  # noqa: BLE001 - an unauditable deployment is a finding
        findings.append(f"audit could not complete: {exc}")
    else:
        for index, reports in outcome["groups"].items():
            for report in reports:
                audited_cells += 1
                for finding in report.findings:
                    findings.append(
                        f"[group {index}] cell {finding.cell} cycle "
                        f"{finding.cycle}: {finding.kind}: {finding.details}"
                    )
        digest_report = outcome["digest"]
        for finding in digest_report.findings:
            findings.append(f"[digest] {finding.kind}: {finding.details}")
        checked_transactions = digest_report.checked_transactions
        shard_digest = digest_report.details
    return OracleResult(
        oracle="audit",
        passed=not findings,
        findings=findings,
        metrics={
            "audited_cells": audited_cells,
            "anchored_group_cycles": anchored_cycles,
            "checked_transactions": checked_transactions,
            "shard_digest": shard_digest,
        },
    )


# ----------------------------------------------------------------------
# Value conservation across FastMoney escrows
# ----------------------------------------------------------------------
def group_registries(deployment: ShardedDeployment) -> list[ContractRegistry]:
    """Each group's contracts, read from its cell 0: the within-group audit
    (fingerprint agreement of all live cells) makes that store *the* group state."""
    return [group.cells[0].contracts for group in deployment.groups]


def fastmoney_instances(
    registries: Sequence[ContractRegistry],
) -> list[tuple[int, str, FastMoney]]:
    """Every FastMoney-family instance, as ``(group, name, contract)``."""
    instances: list[tuple[int, str, FastMoney]] = []
    for group, registry in enumerate(registries):
        for name in registry.names():
            contract = registry.get(name)
            if isinstance(contract, FastMoney):
                instances.append((group, name, contract))
    return instances


#: The amount-mismatch finding of a delivered pair, by (source, target) status.
_DELIVERED = {
    ("settled", "credited"): "settled {} but credited {}",
    ("voucher", "redeemed"): "vouched {} but redeemed {}",
}


@dataclass(frozen=True)
class EscrowPair:
    """One cross-shard transaction's two escrow records, read once.

    ``source`` is the FastMoney record (direction ``out``) on the instance
    the value leaves, ``target`` the one (direction ``in``) on the
    instance it enters; either is None when its instance holds no record.
    Each record carries the ``instance`` and ``group`` it was read from.
    ``others`` holds every further record of either direction, in instance
    order: FastMoney refuses a reused xtx per instance only, so a
    coordinator can open one xtx on two instances, and each such record is
    a finding.  ``docs/TESTING.md`` tabulates what every joint state means.
    """

    xtx: str
    source: Optional[dict[str, Any]] = None
    target: Optional[dict[str, Any]] = None
    others: tuple[dict[str, Any], ...] = ()

    @property
    def source_status(self) -> Optional[str]:
        return None if self.source is None else self.source["status"]

    @property
    def target_status(self) -> Optional[str]:
        return None if self.target is None else self.target["status"]

    def findings(self) -> list[str]:
        """Why this joint state is illegal: the pairing rule ``source`` and
        ``target`` break (one at most), then one finding per record in
        ``others``; empty when it is legal."""
        found = self._pairing_finding()
        findings = [] if found is None else [f"xtx {self.xtx}: {found}"]
        for record in self.others:
            side, first = (
                ("source", self.source) if record["direction"] == "out" else ("target", self.target)
            )
            findings.append(
                f"xtx {self.xtx}: two {side} escrow records, on {first['instance']!r} and "
                f"{record['instance']!r} (xtx reused)"
            )
        return findings

    def _pairing_finding(self) -> Optional[str]:
        source, target = self.source_status, self.target_status
        out, into = (record and repr(record["instance"]) for record in (self.source, self.target))
        # A credit needs a settled source hold, a settle a live target, a
        # redeem an unreclaimed voucher, and a delivered pair one amount.
        if target == "credited" and source != "settled":
            found = f"credited on {into} without a settled source hold (value minted)"
        elif source == "settled" and target is None:
            found = f"settled on {out} with no target escrow record at all"
        elif source == "settled" and target == "cancelled":
            found = f"settled on {out} but cancelled on {into} (contradictory decisions)"
        elif target == "redeemed" and source is None:
            found = f"voucher redeemed on {into} with no minted source voucher (value minted)"
        elif target == "redeemed" and source == "voucher_reclaimed":
            found = f"voucher redeemed on {into} but reclaimed on {out} (double spend)"
        elif target == "redeemed" and source != "voucher":
            found = (f"redeemed on {into} but the source record on {out} has status "
                     f"{source!r}, not a minted voucher")
        elif (source, target) in _DELIVERED and (
            int(self.source["amount"]) != int(self.target["amount"])
        ):
            found = _DELIVERED[source, target].format(self.source["amount"], self.target["amount"])
        else:
            return None
        return found

    @property
    def in_transit(self) -> int:
        """Value out of the source's supply and not yet in the target's: a
        settled hold whose credit is still expected, or an unredeemed voucher."""
        source, target = self.source_status, self.target_status
        if source == "settled" and target == "expected":
            return int(self.source["amount"])
        if source == "voucher" and target != "redeemed":
            return int(self.source["amount"])
        return 0

    @property
    def transfer(self) -> Optional[dict[str, Any]]:
        """The committed transfer, ``{xtx, sender, to, amount}``: a settled hold
        (credited or not yet) whose target names the recipient, or a redeemed
        voucher — of a legal pair only, so a state the conservation oracle
        refuses is never handed to the specification as committed."""
        source, target = self.source_status, self.target_status
        if target is None or not (
            source == "settled" or (source == "voucher" and target == "redeemed")
        ) or self.findings():
            return None
        return {"xtx": self.xtx, "sender": self.source["from"], "to": self.target["to"],
                "amount": int(self.source["amount"])}

    @property
    def adjustment(self) -> Optional[tuple[str, int]]:
        """``(account, amount)`` of escrowed value no balance holds: a held hold
        or an unredeemed voucher is its sender's, a settled hold whose credit is
        still expected its recipient's."""
        source, target = self.source_status, self.target_status
        if source == "held":
            return self.source["from"], int(self.source["amount"])
        if source == "voucher" and target != "redeemed":
            return self.source["from"], int(self.source["amount"])
        if source == "settled" and target == "expected":
            return self.target["to"], int(self.source["amount"])
        return None

    @property
    def commit_legs(self) -> tuple[str, ...]:
        """The decided moves of value that executed: ``settled`` on the
        source, then ``credited`` or ``redeemed`` on the target, then those
        of ``others``."""
        legs = (self.source_status, self.target_status, *(r["status"] for r in self.others))
        return tuple(leg for leg in legs if leg in ("settled", "credited", "redeemed"))


def registry_escrows(
    registries: Sequence[ContractRegistry], base_name: Optional[str] = None
) -> dict[str, EscrowPair]:
    """Every cross-shard escrow pair, keyed and ordered by ``xtx``.

    Each record is augmented with the instance name and group it was read
    from, and every record is kept: the first of each direction, in
    instance order, is the pair's, the rest are its ``others``.
    ``base_name`` restricts the harvest to one application's per-group
    instances (e.g. ``fastmoney`` / ``fastmoney@s1``).
    """
    records: dict[str, dict[str, list[dict[str, Any]]]] = {}
    for group_index, name, contract in fastmoney_instances(registries):
        if base_name is not None and name.split("@s", 1)[0] != base_name:
            continue
        for key, record in contract.store.items("xshard/"):
            xtx = key.split("/", 1)[1]
            enriched = dict(record)
            enriched["instance"] = name
            enriched["group"] = group_index
            sides = records.setdefault(xtx, {"out": [], "in": []})
            sides[record["direction"]].append(enriched)
    pairs = {}
    for xtx, sides in sorted(records.items()):
        out, into = sides["out"] or [None], sides["in"] or [None]
        pairs[xtx] = EscrowPair(xtx, out[0], into[0], (*out[1:], *into[1:]))
    return pairs


def harvest_escrows(
    deployment: ShardedDeployment, base_name: Optional[str] = None
) -> dict[str, EscrowPair]:
    """:func:`registry_escrows` of a deployment's cell groups."""
    return registry_escrows(group_registries(deployment), base_name)


def harvest_cells(
    deployment: ShardedDeployment,
) -> tuple[dict[str, tuple[Any, ...]], dict[str, tuple[Any, ...]]]:
    """``(ledgers, states)``: every cell's ledger digest and contract fingerprints.

    The per-cell half of the replay-equality material, shared by the chaos
    and endurance artifact collectors.
    """
    ledgers = {}
    states = {}
    for group in deployment.groups:
        for cell in group.cells:
            ledgers[cell.node_name] = tuple(map(tuple, cell.ledger.sync_digest()))
            states[cell.node_name] = tuple(
                sorted(
                    (name, cell.contracts.get(name).fingerprint_hex())
                    for name in cell.contracts.names()
                )
            )
    return ledgers, states


def run_conservation_oracle(
    deployment: ShardedDeployment,
    minted: dict[str, int],
) -> OracleResult:
    """No FastMoney value is created or destroyed, escrows included.

    ``minted`` maps each FastMoney instance name to the value legally
    minted into it (genesis balances plus executed faucets minus burns).
    Three layers of checks:

    * **per instance** — ``sum(balances) + sum(held out-escrows) ==
      supply``: an invariant of the contract's own bookkeeping, so any
      violation means the state itself was corrupted;
    * **escrow pairing** — each cross-shard transaction's
      :class:`EscrowPair` is in a legal joint state: a credit needs a
      settled source hold (else value was minted), a settle needs a
      target record that was not cancelled, a fast-path redeem needs a minted
      voucher that was not reclaimed (a reclaimed one is a double
      spend), the two legs of a delivered transfer carry one amount, and
      no instance besides the pair's holds a record of the xtx;
    * **global** — ``sum(minted) == sum(supplies) + in-transit``, where
      in-transit is value settled out of a source instance whose credit
      has not (yet) executed on the target — escrowed by the protocol,
      recoverable with the commit certificate — plus every unredeemed
      voucher, reported in the metrics so a stuck decision is visible.
    """
    findings: list[str] = []
    instances = fastmoney_instances(group_registries(deployment))
    known_names = {name for _g, name, _c in instances}
    for name in minted:
        if name not in known_names:
            findings.append(f"minted map names unknown instance {name!r}")

    total_supply = 0
    total_held = 0
    for _group, name, contract in instances:
        balances = sum(value for _k, value in contract.store.items("balance/"))
        held = sum(
            int(record["amount"])
            for _k, record in contract.store.items("xshard/")
            if record["direction"] == "out" and record["status"] == "held"
        )
        supply = contract.store.get("supply", 0)
        total_supply += supply
        total_held += held
        if balances + held != supply:
            findings.append(
                f"instance {name!r}: balances {balances} + held escrow {held} "
                f"!= supply {supply}"
            )

    escrows = harvest_escrows(deployment)
    for pair in escrows.values():
        findings.extend(pair.findings())
    in_transit = sum(pair.in_transit for pair in escrows.values())

    minted_total = sum(minted.values())
    if minted_total != total_supply + in_transit:
        findings.append(
            f"global: minted {minted_total} != supplies {total_supply} "
            f"+ in-transit {in_transit}"
        )
    return OracleResult(
        oracle="conservation",
        passed=not findings,
        findings=findings,
        metrics={
            "instances": len(instances),
            "supply_total": total_supply,
            "held_total": total_held,
            "in_transit": in_transit,
            "escrow_pairs": len(escrows),
        },
    )
