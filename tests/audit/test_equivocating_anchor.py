"""An equivocating anchor against the sharded audit (satellite of PR 9).

The attack: at a report boundary one cell signs *two different* shard
digests for the same cycle — the honest one on-chain, a forged one to a
chosen peer (or vice versa).  The public half of the lie is caught by
anchor agreement (:func:`repro.audit.run_audit_oracle`): every cell of a
group anchors its fingerprint for each cycle, and the one that anchored
apart from its group is named.
:meth:`ShardedAuditor.localize_fingerprint_mismatch` and
:meth:`ShardedAuditor.verify_shard_digest` prove *which half lies*:
replayed history agrees with exactly one of the two publications, and the
mismatch is pinned to a (cycle, group) coordinate rather than merely
failing the end-of-chain digest comparison.
"""

import pytest

from repro.audit import AuditError, ShardedAuditor, run_audit_oracle
from repro.client import run_burst_transfers
from tests.conftest import make_sharded_deployment

FORGED_FP = "0x" + "ab" * 32


@pytest.fixture(scope="module")
def audited_deployment():
    deployment = make_sharded_deployment(2)
    run_burst_transfers(deployment, count=12, pools=4)
    deployment.run_cycles(1)
    return deployment


@pytest.fixture(scope="module")
def publications(audited_deployment):
    """The anchor's two same-cycle publications: honest and forged."""
    auditor = ShardedAuditor(audited_deployment)
    honest = auditor.collect_group_fingerprints(0)
    forged = [list(row) for row in honest]
    forged[0][1] = FORGED_FP  # cycle 0, group 1
    return honest, forged


def anchored_group(consortium_size, liar=None, kind="equivocate"):
    """One group run through two anchored report cycles; ``liar`` anchors apart."""
    deployment = make_sharded_deployment(
        1, consortium_size=consortium_size, report_period=15.0, eth_block_interval=2.0,
        signature_scheme="sim",
    )
    if liar is not None:
        setattr(deployment.group(0).cells[liar].fault, kind, True)
    deployment.run(until=50.0)
    return deployment


def anchor_findings(result):
    return [finding for finding in result.findings if "anchored snapshot" in finding]


def test_agreeing_anchors_leave_the_oracle_nothing_to_report():
    result = run_audit_oracle(anchored_group(3), cycle=1)
    assert result.passed and result.findings == []
    assert result.metrics["anchored_group_cycles"] == 2


@pytest.mark.parametrize("liar", [0, 1, 2])
@pytest.mark.parametrize("kind", ["equivocate", "tamper_fingerprint"])
def test_anchor_agreement_names_the_cell_that_anchored_apart(kind, liar):
    result = run_audit_oracle(anchored_group(3, liar, kind), cycle=1)
    assert not result.passed
    assert anchor_findings(result) == [
        f"[group 0] cycle {cycle}: anchored snapshot fingerprints disagree — "
        f"cell-{liar} diverge(s) from the group majority"
        for cycle in (0, 1)
    ]
    # The cell's own audit sides with its group: what it anchored is not
    # what it serves.
    audit = [finding for finding in result.findings if finding not in anchor_findings(result)]
    assert audit and all(f"cell cell-{liar} " in finding for finding in audit)
    assert all("fingerprint_mismatch" in finding for finding in audit)


@pytest.mark.parametrize("kind", ["equivocate", "tamper_fingerprint"])
def test_a_split_pair_is_reported_with_both_sides_and_no_outlier(kind):
    deployment = anchored_group(2, liar=1, kind=kind)
    group = deployment.group(0)
    result = run_audit_oracle(deployment, cycle=1)
    findings = anchor_findings(result)
    assert [finding.split(":")[0] for finding in findings] == [
        "[group 0] cycle 0", "[group 0] cycle 1",
    ]
    for cycle, finding in enumerate(findings):
        assert "with no majority" in finding and "diverge(s)" not in finding
        for index in (0, 1):
            anchored = group.anchored_report(cycle, index).hex()[:16]
            assert f"cell-{index}=0x{anchored}..." in finding


def test_localization_pins_the_lying_publication_to_its_coordinate(
    audited_deployment, publications
):
    honest, forged = publications
    auditor = ShardedAuditor(audited_deployment)
    current = auditor.collect_group_fingerprints(0)
    # Replayed history sides with exactly one of the two publications:
    # the honest half matches everywhere, the forged half mismatches at
    # precisely the coordinate the anchor lied about.
    assert auditor.localize_fingerprint_mismatch(0, honest, current=current) == []
    assert auditor.localize_fingerprint_mismatch(0, forged, current=current) == [
        (0, 1)
    ]


@pytest.fixture(scope="module")
def three_cycle_history():
    """A 2-group deployment's ``(auditor, fingerprints)`` through cycle 2."""
    deployment = make_sharded_deployment(2)
    run_burst_transfers(deployment, count=12, pools=4)
    deployment.run_cycles(3)
    auditor = ShardedAuditor(deployment)
    return auditor, auditor.collect_group_fingerprints(2)


@pytest.mark.parametrize("cycle", [0, 1, 2])
@pytest.mark.parametrize("group", [0, 1])
def test_a_lie_is_pinned_at_every_coordinate(three_cycle_history, cycle, group):
    auditor, honest = three_cycle_history
    forged = [list(row) for row in honest]
    forged[cycle][group] = FORGED_FP
    assert auditor.localize_fingerprint_mismatch(2, forged, current=honest) == [(cycle, group)]
    report = auditor.verify_shard_digest(2, published_fingerprints=forged)
    assert [(finding.kind, finding.details) for finding in report.findings] == [(
        "shard_fingerprint_mismatch",
        f"group {group} diverges from the published execution fingerprint at cycle {cycle}",
    )]


def test_digest_verification_rejects_the_forged_publication(
    audited_deployment, publications
):
    honest, forged = publications
    auditor = ShardedAuditor(audited_deployment)
    report = auditor.verify_shard_digest(0, published_fingerprints=honest)
    assert report.passed

    report = auditor.verify_shard_digest(0, published_fingerprints=forged)
    assert not report.passed
    (finding,) = report.findings
    assert finding.kind == "shard_fingerprint_mismatch"
    assert "group 1" in finding.details
    assert "cycle 0" in finding.details


def test_malformed_publications_are_unverifiable_not_silently_ok(
    audited_deployment, publications
):
    honest, _forged = publications
    auditor = ShardedAuditor(audited_deployment)
    with pytest.raises(AuditError, match="covers 0 cycles"):
        auditor.localize_fingerprint_mismatch(0, [])
    with pytest.raises(AuditError, match="group fingerprints"):
        auditor.localize_fingerprint_mismatch(0, [honest[0][:1]])


def test_every_finding_names_its_group_by_index():
    """Anchor agreement and the cells' own audits label the lying cell's group alike."""
    deployment = make_sharded_deployment(
        2, consortium_size=3, report_period=15.0, eth_block_interval=2.0,
        signature_scheme="sim",
    )
    deployment.group(1).cells[2].fault.tamper_fingerprint = True
    deployment.run(until=50.0)
    result = run_audit_oracle(deployment, cycle=1)
    anchors = anchor_findings(result)
    assert not result.passed and anchors
    assert len(result.findings) > len(anchors)
    assert all(finding.startswith("[group 1] ") for finding in result.findings), result.findings
