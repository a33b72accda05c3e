"""An equivocating anchor against the sharded audit (satellite of PR 9).

The attack: at a report boundary one cell signs *two different* shard
digests for the same cycle — the honest one on-chain, a forged one to a
chosen peer (or vice versa).  Catching it takes two pieces working
together, and this module pins both:

* :class:`~repro.messages.EquivocationEvidence` proves the *act* — the
  pair of same-cell, same-cycle signed digests is self-certifying;
* :meth:`ShardedAuditor.localize_fingerprint_mismatch` and
  :meth:`ShardedAuditor.verify_shard_digest` prove *which half lies*:
  replayed history agrees with exactly one of the two publications, and
  the mismatch is pinned to a (cycle, group) coordinate rather than
  merely failing the end-of-chain digest comparison.
"""

import pytest

from repro.audit import AuditError, ShardedAuditor
from repro.client import run_burst_transfers
from repro.core.receipts import Confirmation
from repro.messages import EquivocationEvidence
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


def _signed_digest(cell, cycle, fingerprint):
    """One signed shard-digest statement from ``cell`` for ``cycle``."""
    return Confirmation.create(
        cell.signer,
        tx_id=f"shard-digest/cycle-{cycle}",
        contract="__audit__",
        fingerprint_hex=fingerprint,
        status="anchored",
        timestamp=30.0,
    )


def test_two_signed_digests_for_one_cycle_are_self_certifying(
    audited_deployment, publications
):
    honest, forged = publications
    anchor = audited_deployment.group(1).cells[0]
    evidence = EquivocationEvidence(
        first=_signed_digest(anchor, 0, honest[0][1]),
        second=_signed_digest(anchor, 0, forged[0][1]),
    )
    assert evidence.verify()
    assert evidence.cell() == anchor.address
    # The pair alone proves misbehaviour; no reporter signature needed —
    # round-tripping through wire data preserves that.
    assert EquivocationEvidence.from_data(evidence.to_data()).verify()


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
