"""ShardedAuditor tamper localization: name the offending group and cycle.

Two attack shapes against the deployment-level shard digest:

* a cell of one group rewrites part of its execution history (its cells
  stop agreeing) — the audit must say *which group* and *which cycle*;
* the per-group fingerprint history published alongside a digest is
  forged at one link — the audit must pin the forged (cycle, group)
  coordinate, not merely observe that the end-of-chain digest differs.
"""

import pytest

from repro.audit import AuditError, ShardedAuditor
from repro.client import run_burst_transfers
from tests.conftest import make_sharded_deployment

COUNT = 12
POOLS = 4


@pytest.fixture(scope="module")
def audited_deployment():
    deployment = make_sharded_deployment(2)
    run_burst_transfers(deployment, count=COUNT, pools=POOLS)
    deployment.run_cycles(1)
    return deployment


def _tamper_ledger(cell, cycle):
    """Rewrite the result of one executed entry of ``cycle`` on one cell."""
    for entry in cell.ledger:
        if entry.cycle == cycle and entry.status == "executed":
            entry.result = {"forged": True}
            return entry
    raise AssertionError(f"no executed entry in cycle {cycle} to tamper with")


def test_corrupted_group_history_names_group_and_cycle(audited_deployment):
    auditor = ShardedAuditor(audited_deployment)
    baseline = auditor.collect_group_fingerprints(0)
    assert len(baseline) == 1 and len(baseline[0]) == 2

    victim = audited_deployment.group(1).cells[1]
    tampered = _tamper_ledger(victim, cycle=0)
    with pytest.raises(AuditError) as caught:
        auditor.collect_group_fingerprints(0)
    message = str(caught.value)
    assert "group 1" in message
    assert "cycle 0" in message

    # Heal the ledger so the module-scoped deployment stays usable.
    tampered.result = None
    for entry in audited_deployment.group(1).cells[0].ledger:
        if entry.tx_id == tampered.tx_id:
            tampered.result = entry.result
    assert auditor.collect_group_fingerprints(0) == baseline


def test_forged_digest_link_is_localized_to_group_and_cycle(audited_deployment):
    auditor = ShardedAuditor(audited_deployment)
    published = auditor.collect_group_fingerprints(0)
    digest = audited_deployment.shard_digest(0)

    # The honest publication verifies, with no localized findings.
    honest = auditor.verify_shard_digest(
        0, published=digest, published_fingerprints=published
    )
    assert honest.passed and honest.details == digest

    # Forge group 0's cycle-0 link of the published history.
    forged = [list(row) for row in published]
    forged[0][0] = "0x" + "ab" * 32
    report = auditor.verify_shard_digest(0, published_fingerprints=forged)
    assert not report.passed
    assert [finding.kind for finding in report.findings] == [
        "shard_fingerprint_mismatch"
    ]
    assert "group 0" in report.findings[0].details
    assert "cycle 0" in report.findings[0].details


def test_published_history_of_wrong_shape_is_unverifiable(audited_deployment):
    auditor = ShardedAuditor(audited_deployment)
    report = auditor.verify_shard_digest(0, published_fingerprints=[])
    assert not report.passed
    assert report.findings[0].kind == "shard_digest_unverifiable"
