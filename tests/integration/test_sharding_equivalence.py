"""Differential harness: sharding must never change what gets computed.

Two guarantees are asserted:

* **one group is the pre-shard pipeline, artifact for artifact and
  instant for instant** — a plain ``BlockumulusDeployment`` viewed
  through the front door and a constructed ``shard_count=1``
  ``ShardedDeployment`` produce, under the same workload, exactly the
  same ledgers, receipts, per-cycle execution fingerprints, contract
  state, per-transaction submission and completion times, and network
  byte and message totals — for the burst and for the contended burst at
  every lane count and batching setting.
* **repeat determinism** — running the same multi-shard configuration
  (including cross-shard two-phase transfers) twice yields identical
  per-shard ledgers, receipts, fingerprints, and the same deployment
  shard digest.
"""

import pytest

from repro.client import run_burst_transfers, run_contended_transfers
from repro.crypto.fingerprint import snapshot_fingerprint
from repro.encoding import canonical_json
from tests.conftest import make_deployment, make_sharded_deployment

COUNT = 16
CONFLICT_RATE = 0.5
HOT_ACCOUNTS = 2
POOLS = 4


def cells_of(deployment):
    return [cell for group in deployment.as_sharded().groups for cell in group.cells]


def artifacts(deployment, report):
    """Observable artifacts of one run, timing and traffic included."""
    cells = cells_of(deployment)
    return {
        "ledgers": {
            cell.node_name: sorted(
                (
                    entry.tx_id,
                    entry.status,
                    str(entry.contract),
                    canonical_json.dumps(entry.result),
                    str(entry.error),
                )
                for entry in cell.ledger
            )
            for cell in cells
        },
        "receipts": sorted(
            (
                result.receipt.tx_id,
                result.receipt.contract,
                result.receipt.fingerprint_hex,
                canonical_json.dumps(result.receipt.result),
            )
            for result in report.successes
        ),
        "cycle_fingerprints": {
            cell.node_name: cell.ledger.cycle_execution_fingerprint(0) for cell in cells
        },
        "state_fingerprints": {
            cell.node_name: "0x" + snapshot_fingerprint(cell.contracts.fingerprints()).hex()
            for cell in cells
        },
        "timings": [
            (result.tx_id, result.submitted_at, result.completed_at)
            for result in report.results
        ],
        "network_bytes": deployment.network.total_bytes(),
        "network_messages": deployment.network.total_messages(),
    }


WORKLOADS = {
    "burst": lambda deployment: run_burst_transfers(deployment, count=COUNT, pools=POOLS),
    "contended": lambda deployment: run_contended_transfers(
        deployment, count=COUNT, conflict_rate=CONFLICT_RATE,
        hot_accounts=HOT_ACCOUNTS, pools=POOLS, submit_at=5.0,
    ),
}


@pytest.mark.parametrize("message_batching", [False, True])
@pytest.mark.parametrize("execution_lanes", [1, 4])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_group_equals_the_plain_pipeline(workload, execution_lanes, message_batching):
    """A viewed plain consortium vs. a constructed ``shard_count=1`` deployment."""
    config = dict(execution_lanes=execution_lanes, message_batching=message_batching)
    plain = make_deployment(**config)
    plain_report = WORKLOADS[workload](plain)
    constructed = make_sharded_deployment(1, **config)
    constructed_report = WORKLOADS[workload](constructed)
    assert plain_report.cross_results == constructed_report.cross_results == []
    expected = artifacts(plain, plain_report)
    got = artifacts(constructed, constructed_report)
    for name, value in expected.items():
        assert got[name] == value, f"{name} diverged between plain and shards=1"


def run_multi_shard():
    deployment = make_sharded_deployment(2)
    report = run_burst_transfers(
        deployment, count=COUNT, cross_shard_rate=0.25, pools=POOLS
    )
    deployment.run_cycles(1)
    return deployment, report


def test_repeated_multi_shard_runs_are_identical():
    first_deployment, first_report = run_multi_shard()
    second_deployment, second_report = run_multi_shard()
    assert first_report.failure_count == 0
    assert len(first_report.cross_results) > 0, "the cross dial must bite"
    assert artifacts(first_deployment, first_report) == artifacts(
        second_deployment, second_report
    )
    assert [r.xtx for r in first_report.cross_results] == [
        r.xtx for r in second_report.cross_results
    ]
    assert first_deployment.shard_digest(0) == second_deployment.shard_digest(0)


def test_groups_agree_internally_under_cross_shard_traffic():
    deployment, report = run_multi_shard()
    assert report.failure_count == 0
    for group in deployment.groups:
        # Admission *order* differs per cell (as in the unsharded overlay:
        # each peer admits on forward arrival); agreement is on content —
        # the sorted entry digests and the order-independent per-cycle
        # execution fingerprint every cell of the group must share.
        contents = {
            tuple(sorted(
                (entry.tx_id, entry.status, str(entry.contract), str(entry.error))
                for entry in cell.ledger
            ))
            for cell in group.cells
        }
        assert len(contents) == 1, f"group {group.index} cells disagree"
        fingerprints = {
            cell.ledger.cycle_execution_fingerprint(0) for cell in group.cells
        }
        assert len(fingerprints) == 1
