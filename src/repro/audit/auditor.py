"""Independent Blockumulus auditors (Section III-B6, Fig. 4).

An auditor is a permissionless participant that oversees the integrity of a
deployment.  It performs the two audits the paper defines:

* **Snapshot succession audit** — download two consecutive data snapshots
  and the ledger segment between them from a cell, replay every executed
  transaction on top of the earlier snapshot, and check that the result
  fingerprints to the later snapshot.
* **Data integrity audit** — check that each cell anchored its snapshot
  fingerprint in the Ethereum contract on time, and that the anchored
  fingerprint matches the snapshot data the cell actually serves.

Auditors talk to cells over the same signed message interface as clients
and read the anchor contract through the Ethereum provider, so a cheating
cell cannot show the auditor anything it did not sign or anchor.  It can
answer with garbage, though: every download is read strictly, into the
reply body the cell side declares (:func:`repro.core.routes.read_reply`),
and one that does not parse is a finding of the audit, never an exception
out of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional, TYPE_CHECKING

from ..contracts.community import Ballot, DividendPool, FastMoney
from ..contracts.interface import BContract
from ..contracts.registry import ContractRegistry
from ..contracts.system.cas import ContentAddressableStorage
from ..contracts.system.deployer import CommunityDeployer
from ..core.deployment import BlockumulusDeployment
from ..core.executor import TransactionExecutor
from ..core.ledger import LedgerEntry
from ..core.replies import ReplyError
from ..core.routes import read_reply
from ..core.snapshot import DataSnapshot
from ..crypto.fingerprint import snapshot_fingerprint
from ..messages.endpoint import Endpoint
from ..messages.envelope import Envelope, EnvelopeError
from ..messages.membership import LedgerRecord
from ..messages.opcodes import Opcode
from ..messages.signer import Signer
from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.sharding import ShardedDeployment


class AuditError(Exception):
    """Raised when an audit cannot be carried out (not when it fails)."""


@dataclass
class AuditFinding:
    """One problem discovered by an audit."""

    kind: str
    cell: str
    cycle: int
    details: str


@dataclass
class AuditReport:
    """Outcome of one audit run."""

    auditor: str
    cell: str
    cycle: int
    passed: bool
    findings: list[AuditFinding] = field(default_factory=list)
    checked_transactions: int = 0
    #: Audit-specific payload (e.g. the recomputed shard digest).
    details: Optional[str] = None

    def add(self, kind: str, details: str) -> None:
        """Record a finding and mark the audit as failed."""
        self.passed = False
        self.findings.append(
            AuditFinding(kind=kind, cell=self.cell, cycle=self.cycle, details=details)
        )


#: Contract classes an auditor can instantiate for replay, by the type tag a
#: snapshot records for every contract (``contract_types``) — whatever name
#: the instance was deployed under, per-shard instances included.
_TYPE_FACTORIES: dict[str, Any] = {
    cls.TYPE: cls
    for cls in (
        ContentAddressableStorage,
        CommunityDeployer,
        FastMoney,
        Ballot,
        DividendPool,
    )
}


class Auditor:
    """A voluntary auditor attached to the simulated network."""

    _counter = 0

    def __init__(
        self,
        deployment: BlockumulusDeployment,
        signer: Optional[Signer] = None,
        node_name: Optional[str] = None,
    ) -> None:
        self.deployment = deployment
        self.env = deployment.env
        type(self)._counter += 1
        self.node_name = node_name or f"auditor-{type(self)._counter}"
        self.signer = signer or deployment.make_client_signer(f"auditor/{self.node_name}")
        self.endpoint = Endpoint(self.env, deployment.network, self.node_name, self.signer)
        deployment.network.register(self.node_name, handler=self._on_message)

    # ------------------------------------------------------------------
    # Cell communication
    # ------------------------------------------------------------------
    def _on_message(self, src_node: str, payload: Any, size: int) -> None:
        if isinstance(payload, Envelope):
            self.endpoint.resolve(src_node, payload)

    def _fetch(
        self, cell_index: int, operation: Opcode, data: dict[str, Any], expected: Opcode
    ) -> Generator[Event, Any, Any]:
        """Ask one cell and read its ``expected`` reply (a process step).

        Raises :class:`AuditError` when the request never left, and
        :class:`~repro.core.replies.ReplyError` for a refusal or a reply
        the declared body does not parse.
        """
        cell = self.deployment.cell(cell_index)
        _request, waiter = self.endpoint.ask(cell.node_name, cell.address, operation, data)
        reply = yield waiter
        if reply is None:
            raise AuditError(f"cell {cell.node_name} is unreachable")
        return read_reply(reply, expected)

    def fetch_snapshot(
        self, cell_index: int, cycle: Optional[int]
    ) -> Generator[Event, Any, DataSnapshot]:
        """Download a cell's data snapshot for ``cycle`` (None: its latest)."""
        response = yield from self._fetch(
            cell_index, Opcode.SNAPSHOT_REQUEST, {"cycle": cycle}, Opcode.SNAPSHOT_RESPONSE
        )
        return response.snapshot

    def fetch_ledger_segment(
        self, cell_index: int, first_cycle: int, last_cycle: int
    ) -> Generator[Event, Any, tuple[LedgerRecord, ...]]:
        """Download a cell's ledger entries for a range of cycles."""
        response = yield from self._fetch(
            cell_index,
            Opcode.LEDGER_REQUEST,
            {"first_cycle": first_cycle, "last_cycle": last_cycle},
            Opcode.LEDGER_RESPONSE,
        )
        return response.entries

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------
    def audit_cell(self, cell_index: int, cycle: int) -> Generator[Event, Any, AuditReport]:
        """Full audit of one cell for one report cycle (a simulation process).

        Combines the data-integrity audit (anchored report present, timely,
        matching the served snapshot) with the snapshot-succession audit
        (replaying the cycle's transactions on the previous snapshot).
        Use ``deployment.env.process(auditor.audit_cell(...))`` and run the
        environment until the process completes; its value is the report.
        """
        cell = self.deployment.cell(cell_index)
        report = AuditReport(
            auditor=self.node_name, cell=cell.node_name, cycle=cycle, passed=True
        )

        try:
            snapshot = yield from self.fetch_snapshot(cell_index, cycle)
        except ReplyError as exc:
            report.add("snapshot_unavailable", str(exc))
            return report

        previous: Optional[DataSnapshot] = None
        try:
            previous = yield from self.fetch_snapshot(cell_index, cycle - 1)
        except ReplyError as exc:
            if exc.refusal is None:
                # Not "no snapshot for that cycle" but something unreadable:
                # garbling the predecessor must not get a cell out of the replay.
                report.add("snapshot_unavailable", f"cycle {cycle - 1}: {exc}")

        entries: Optional[tuple[LedgerRecord, ...]] = None
        try:
            entries = yield from self.fetch_ledger_segment(cell_index, cycle, cycle)
        except ReplyError as exc:
            report.add("ledger_unavailable", str(exc))

        self._check_anchoring(report, cell_index, cycle, snapshot)
        self._check_internal_consistency(report, snapshot)
        if previous is not None and entries is not None:
            self._check_succession(report, previous, snapshot, entries)
        return report

    # -- data integrity ------------------------------------------------
    def _check_anchoring(
        self, report: AuditReport, cell_index: int, cycle: int, snapshot: DataSnapshot
    ) -> None:
        anchored = self.deployment.anchored_report(cycle, cell_index)
        if anchored is None:
            report.add("missing_report", f"cycle {cycle} has no anchored fingerprint")
        elif anchored != snapshot.fingerprint:
            report.add(
                "fingerprint_mismatch",
                f"anchored {('0x' + anchored.hex())[:18]}... differs from served "
                f"{snapshot.fingerprint_hex()[:18]}...",
            )

    def _check_internal_consistency(self, report: AuditReport, snapshot: DataSnapshot) -> None:
        """The served snapshot's combined fingerprint must match its parts."""
        parts = snapshot.contract_fingerprints
        if snapshot_fingerprint(parts) != snapshot.fingerprint:
            report.add(
                "inconsistent_snapshot",
                "combined fingerprint does not match the per-contract fingerprints",
            )
        for name, digest in parts.items():
            if name not in snapshot.state_export:
                report.add("missing_state", f"snapshot omits state for contract {name!r}")
                continue
            rebuilt = _rebuild_contract(snapshot, name)
            if rebuilt is not None and rebuilt.fingerprint() != digest:
                report.add(
                    "state_fingerprint_mismatch",
                    f"contract {name!r} state does not hash to its claimed fingerprint",
                )

    # -- snapshot succession --------------------------------------------
    def _check_succession(
        self,
        report: AuditReport,
        previous: DataSnapshot,
        snapshot: DataSnapshot,
        entries: tuple[LedgerRecord, ...],
    ) -> None:
        registry = ContractRegistry()
        for name in previous.state_export:
            contract = _rebuild_contract(previous, name)
            if contract is not None:
                registry.register(contract)
        if not len(registry):
            report.add("replay_impossible", "previous snapshot carries no reconstructable state")
            return
        executor = TransactionExecutor("auditor-replay", registry)
        replayed = 0
        for record in entries:
            summary = record.summary
            if summary.status != "executed":
                continue
            try:
                envelope = Envelope.from_wire(record.envelope)
            except EnvelopeError:
                report.add("malformed_ledger_entry", f"sequence {summary.sequence}")
                continue
            if not envelope.verify():
                report.add(
                    "forged_transaction",
                    f"ledger entry {summary.sequence} has an invalid client signature",
                )
                continue
            entry = LedgerEntry(
                sequence=summary.sequence,
                tx_id=envelope.payload.hash_hex(),
                cycle=summary.cycle,
                admitted_at=summary.admitted_at,
                envelope=envelope,
                contingency=summary.contingency,
            )
            outcome = executor.execute(entry)
            if not outcome.ok:
                report.add(
                    "replay_divergence",
                    f"transaction {entry.tx_id[:18]}... fails on replay: {outcome.error}",
                )
            replayed += 1
        report.checked_transactions = replayed

        for name in registry.names():
            claimed = snapshot.contract_fingerprints.get(name)
            if claimed is not None and claimed != registry.get(name).fingerprint():
                report.add(
                    "succession_mismatch",
                    f"replaying cycle {snapshot.cycle} does not reproduce "
                    f"the fingerprint of contract {name!r}",
                )

    # -- recovered cells -------------------------------------------------
    def audit_recovery(
        self, cell_index: int, reference_index: int, cycle: Optional[int] = None
    ) -> Generator[Event, Any, AuditReport]:
        """Verify a recovered (or freshly bootstrapped) cell's fingerprints.

        Downloads the same-cycle snapshot from the recovered cell and from a
        live reference cell and requires identical combined and per-contract
        fingerprints; if the recovered cell has anchored a report for that
        cycle, it must match the snapshot it serves.  Run after the first
        post-recovery report cycle to confirm the cell rejoined in a state
        indistinguishable from one that never crashed (Section V).
        """
        cell = self.deployment.cell(cell_index)
        reference = self.deployment.cell(reference_index)
        report = AuditReport(
            auditor=self.node_name, cell=cell.node_name, cycle=cycle or -1, passed=True
        )

        try:
            recovered = yield from self.fetch_snapshot(cell_index, cycle)
        except ReplyError as exc:
            report.add("snapshot_unavailable", str(exc))
            return report
        report.cycle = recovered.cycle

        try:
            expected = yield from self.fetch_snapshot(reference_index, report.cycle)
        except ReplyError:
            report.add(
                "reference_unavailable",
                f"reference cell {reference.node_name} serves no snapshot "
                f"for cycle {report.cycle}",
            )
            return report

        if recovered.fingerprint != expected.fingerprint:
            report.add(
                "recovery_divergence",
                f"cycle {report.cycle} fingerprints differ from {reference.node_name}",
            )
        for name, digest in expected.contract_fingerprints.items():
            if recovered.contract_fingerprints.get(name) != digest:
                report.add(
                    "recovery_divergence",
                    f"contract {name!r} fingerprint differs from {reference.node_name}",
                )
        anchored = self.deployment.anchored_report(report.cycle, cell_index)
        if anchored is not None and anchored != recovered.fingerprint:
            report.add(
                "fingerprint_mismatch",
                f"recovered cell's anchored cycle-{report.cycle} report does not "
                "match the snapshot it serves",
            )
        return report

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def run_audit(self, cell_index: int, cycle: int) -> AuditReport:
        """Run a full audit synchronously (drives the simulation)."""
        process = self.env.process(self.audit_cell(cell_index, cycle))
        self.env.run(process)
        return process.value

    def run_recovery_audit(
        self, cell_index: int, reference_index: int, cycle: Optional[int] = None
    ) -> AuditReport:
        """Run a recovery audit synchronously (drives the simulation)."""
        process = self.env.process(self.audit_recovery(cell_index, reference_index, cycle))
        self.env.run(process)
        return process.value

    def cross_audit(self, cycle: int) -> list[AuditReport]:
        """Audit every cell for ``cycle`` (the consortium cross-audit)."""
        return [
            self.run_audit(cell_index, cycle)
            for cell_index in range(self.deployment.consortium_size)
        ]


class ShardedAuditor:
    """Global-consistency auditor for a sharded deployment.

    A sharded deployment has no single ledger to audit: each cell group
    keeps its own.  This auditor therefore composes two layers:

    * **per-group audits** — one ordinary :class:`Auditor` per group runs
      the paper's snapshot-succession and data-integrity audits against
      that group's cells (everything over the signed message interface,
      as usual);
    * **the shard digest** — every group's cells must agree on one
      execution fingerprint per report cycle; the auditor collects those
      per-group fingerprint histories, requires within-group unanimity,
      and recomputes the deployment-level hash chain with
      :func:`~repro.core.sharding.chain_shard_digest`.  Because the
      chain is a pure function of the per-group fingerprints, any
      divergence in any group's history — a dropped transaction, a
      different outcome, a reordered cycle — changes the digest;
      comparing the recomputation against a digest recorded earlier (or
      exchanged out of band) therefore detects tampering since that
      point.
    """

    def __init__(self, deployment: "ShardedDeployment") -> None:
        self.deployment = deployment
        self.group_auditors = [
            Auditor(group, node_name=f"sharded-auditor-g{group.index}")
            for group in deployment.groups
        ]

    def collect_group_fingerprints(self, through_cycle: int) -> list[list[str]]:
        """Per-cycle fingerprint lists ``[cycle][group]``, unanimity-checked.

        Raises :class:`AuditError` when the live cells of any group
        disagree among themselves — that is an intra-group consistency
        failure the group's own confirmation protocol should have caught,
        and chaining a digest over it would be meaningless.
        """
        per_group: list[list[str]] = []
        for group in self.deployment.groups:
            histories = {
                cell.node_name: cell.ledger.execution_fingerprints_through(through_cycle)
                for cell in group.cells
                if not cell.fault.crashed
            }
            if len(set(map(tuple, histories.values()))) != 1:
                # Localize the tamper: name the offending group and the
                # first cycle whose fingerprints disagree, so an operator
                # (or the chaos engine's shrinker) knows where to look.
                for cycle in range(through_cycle + 1):
                    # lint: disable=DET003 — feeds a set cardinality check, so order cannot leak
                    values = {history[cycle] for history in histories.values()}
                    if len(values) != 1:
                        raise AuditError(
                            f"cells of group {group.index} disagree on their execution "
                            f"history at cycle {cycle}: "
                            + ", ".join(
                                f"{name}={history[cycle][:18]}..."
                                for name, history in sorted(histories.items())
                            )
                        )
                raise AuditError(
                    f"cells of group {group.index} disagree on their execution history"
                )
            per_group.append(next(iter(histories.values())))
        return [
            [per_group[group][cycle] for group in range(len(per_group))]
            for cycle in range(through_cycle + 1)
        ]

    def localize_fingerprint_mismatch(
        self,
        through_cycle: int,
        published: list[list[str]],
        current: Optional[list[list[str]]] = None,
    ) -> list[tuple[int, int]]:
        """Where the deployment's history departs from a published one.

        ``published`` is a per-cycle list of per-group execution
        fingerprints ``[cycle][group]`` recorded earlier (the same matrix
        :meth:`collect_group_fingerprints` returns).  The result is the
        list of ``(cycle, group)`` coordinates whose fingerprints no
        longer match — which is how a forged shard-digest link is pinned
        to the offending group and cycle instead of just failing the
        end-of-chain comparison.  ``current`` reuses an already collected
        history instead of collecting it again.
        """
        if len(published) != through_cycle + 1:
            raise AuditError(
                f"published history covers {len(published)} cycles, "
                f"expected {through_cycle + 1}"
            )
        if current is None:
            current = self.collect_group_fingerprints(through_cycle)
        mismatches: list[tuple[int, int]] = []
        for cycle, (now_row, then_row) in enumerate(zip(current, published)):
            if len(then_row) != len(now_row):
                raise AuditError(
                    f"published cycle {cycle} carries {len(then_row)} group "
                    f"fingerprints, expected {len(now_row)}"
                )
            for group, (now_fp, then_fp) in enumerate(zip(now_row, then_row)):
                if now_fp != then_fp:
                    mismatches.append((cycle, group))
        return mismatches

    def verify_shard_digest(
        self,
        through_cycle: int,
        published: Optional[str] = None,
        published_fingerprints: Optional[list[list[str]]] = None,
    ) -> AuditReport:
        """Recompute the deployment digest from the per-group histories.

        Without ``published``, the audit establishes that a digest *can*
        be computed: every group's live cells agree on their whole
        execution-fingerprint history and the chain closes (this is the
        within-group consistency half).  Pass ``published`` — a digest
        recorded earlier, exchanged out of band, or anchored by the
        operator — to additionally verify the deployment's current state
        against that commitment: any dropped transaction, divergent
        outcome, or reordered cycle in any group since then changes the
        recomputation and is reported as a ``shard_digest_mismatch``.
        The recomputed digest is exposed as ``report.details``.

        ``published_fingerprints`` — the full per-cycle × per-group
        fingerprint matrix recorded alongside the digest — additionally
        localizes any mismatch: each forged or diverged link is reported
        as a ``shard_fingerprint_mismatch`` finding naming the offending
        group and cycle (:meth:`localize_fingerprint_mismatch`).
        """
        from ..core.sharding import ShardingError, chain_shard_digest

        report = AuditReport(
            auditor="sharded-auditor",
            cell=f"{self.deployment.shard_count} groups",
            cycle=through_cycle,
            passed=True,
        )
        try:
            fingerprints = self.collect_group_fingerprints(through_cycle)
            recomputed = chain_shard_digest(
                self.deployment.config.deployment_id,
                self.deployment.shard_count,
                fingerprints,
            )
        except (AuditError, ShardingError) as exc:
            report.add("shard_digest_unverifiable", str(exc))
            return report
        report.checked_transactions = sum(
            len(group.cells[0].ledger) for group in self.deployment.groups
        )
        report.details = recomputed
        if published is not None and recomputed != published:
            report.add(
                "shard_digest_mismatch",
                f"recomputed {recomputed[:18]}... differs from published {published[:18]}...",
            )
        if published_fingerprints is not None:
            try:
                mismatches = self.localize_fingerprint_mismatch(
                    through_cycle, published_fingerprints, current=fingerprints
                )
            except AuditError as exc:
                report.add("shard_digest_unverifiable", str(exc))
                return report
            for cycle, group in mismatches:
                report.add(
                    "shard_fingerprint_mismatch",
                    f"group {group} diverges from the published execution "
                    f"fingerprint at cycle {cycle}",
                )
        return report

    def run_sharded_audit(
        self,
        cycle: int,
        published_digest: Optional[str] = None,
        published_fingerprints: Optional[list[list[str]]] = None,
    ) -> dict[str, Any]:
        """Audit every group for ``cycle`` and verify the shard digest.

        Returns ``{"passed": bool, "digest": AuditReport, "groups":
        {group index: [AuditReport per cell]}}`` — the digest ties the
        per-group audits into one global-consistency verdict (compared
        against ``published_digest`` / the per-cycle
        ``published_fingerprints`` history when supplied; see
        :meth:`verify_shard_digest`).
        """
        group_reports = {
            index: auditor.cross_audit(cycle) for index, auditor in enumerate(self.group_auditors)
        }
        digest_report = self.verify_shard_digest(
            cycle,
            published=published_digest,
            published_fingerprints=published_fingerprints,
        )
        passed = digest_report.passed and all(
            report.passed for reports in group_reports.values() for report in reports
        )
        return {"passed": passed, "digest": digest_report, "groups": group_reports}


def _rebuild_contract(snapshot: DataSnapshot, name: str) -> Optional[BContract]:
    """Reconstruct one contract of ``snapshot`` and restore its exported state.

    The snapshot's ``contract_types`` tag identifies the implementation
    regardless of the deployed name.  Community contracts deployed from
    source would be rebuilt through the deployer record; an unknown type is
    skipped rather than failed.
    """
    cls = _TYPE_FACTORIES.get(snapshot.contract_types.get(name, ""))
    if cls is None:
        return None
    contract: BContract = cls(name)
    contract.restore_state(snapshot.state_export[name])
    return contract
