"""Workload generators (reduced-scale versions of the paper's harness)."""

import pytest

from repro.client.workload import (
    CONTENDED_CONTRACT,
    MixedOperation,
    WorkloadError,
    build_client_pools,
    plan_mixed_genesis,
    run_burst_cas_uploads,
    run_burst_transfers,
    run_contended_transfers,
    run_mixed_operations,
    run_sequential_transfers,
)
from tests.conftest import make_deployment, make_sharded_deployment


def test_build_client_pools_round_robin(four_cell_deployment):
    pools = build_client_pools(four_cell_deployment, pools=8)
    assert len(pools) == 8
    assert pools[0].client_for(0).service_cell is four_cell_deployment.cell(0)
    assert pools[5].client_for(0).service_cell is four_cell_deployment.cell(1)
    with pytest.raises(WorkloadError):
        build_client_pools(four_cell_deployment, pools=0)


def test_sequential_transfer_workload_summary():
    deployment = make_deployment()
    report = run_sequential_transfers(deployment, count=12, pools=4)
    assert len(report.results) == 12
    assert report.failure_count == 0
    summary = report.summary()
    assert summary["transactions"] == 12
    assert summary["latency_p90"] >= summary["latency_p50"] > 0
    assert summary["throughput_tps"] > 0


def test_burst_transfer_workload():
    deployment = make_deployment()
    report = run_burst_transfers(deployment, count=40, pools=4)
    assert len(report.results) == 40
    assert report.failure_count == 0
    throughput = report.throughput()
    assert throughput.operations == 40
    assert throughput.makespan > 0


def test_burst_cas_workload_stores_blobs():
    deployment = make_deployment()
    report = run_burst_cas_uploads(deployment, count=20, pools=4, blob_bytes=32)
    assert report.failure_count == 0
    cas = deployment.cell(0).contracts.get("system.cas")
    assert cas.query("stats", {})["puts"] == 20


def test_latencies_series_covers_only_successes():
    deployment = make_deployment()
    report = run_burst_transfers(deployment, count=10, pools=2)
    assert len(report.latencies()) == len(report.successes) == 10


def test_empty_workload_report_raises():
    deployment = make_deployment()
    report = run_burst_transfers(deployment, count=5, pools=1)
    report.results = [r for r in report.results if not r.ok]
    with pytest.raises(WorkloadError):
        report.throughput()


def test_bad_counts_fail_fast_instead_of_producing_empty_bursts():
    deployment = make_deployment()
    for bad_count in (0, -3, 1.5, True, "12"):
        with pytest.raises(WorkloadError, match="positive integer"):
            run_burst_transfers(deployment, count=bad_count)
        with pytest.raises(WorkloadError, match="positive integer"):
            run_sequential_transfers(deployment, count=bad_count)
        with pytest.raises(WorkloadError, match="positive integer"):
            run_burst_cas_uploads(deployment, count=bad_count)
        with pytest.raises(WorkloadError, match="positive integer"):
            run_contended_transfers(deployment, count=bad_count)
    # Validation fires before any client pool or contract is created.
    assert deployment.network.total_messages() == 0


def test_bad_amounts_and_rates_fail_fast():
    deployment = make_deployment()
    with pytest.raises(WorkloadError, match="amount"):
        run_burst_transfers(deployment, count=5, amount=0)
    with pytest.raises(WorkloadError, match="conflict_rate"):
        run_contended_transfers(deployment, count=5, conflict_rate=1.5)
    with pytest.raises(WorkloadError, match="conflict_rate"):
        run_contended_transfers(deployment, count=5, conflict_rate="half")
    with pytest.raises(WorkloadError, match="hot account"):
        run_contended_transfers(deployment, count=5, hot_accounts=0)
    with pytest.raises(WorkloadError, match="blob_bytes"):
        run_burst_cas_uploads(deployment, count=5, blob_bytes=0)


@pytest.mark.parametrize("shards, cross_shard_rate", [(2, 1.0), (1, 0.0)])
def test_summary_is_uniform_from_all_cross_shard_to_one_group(shards, cross_shard_rate):
    deployment = make_sharded_deployment(shards)
    report = run_burst_transfers(
        deployment, count=4, cross_shard_rate=cross_shard_rate, pools=2
    )
    crossing = 4 if cross_shard_rate else 0
    assert len(report.cross_results) == crossing and len(report.results) == 4 - crossing
    assert report.failure_count == 0
    summary = report.summary()
    assert summary["transactions"] == 4
    assert summary["cross_shard_transactions"] == crossing
    assert summary["cross_shard_failures"] == summary["cross_shard_in_transit"] == 0
    assert summary["throughput_tps"] > 0
    if crossing:
        # Every success is cross-shard: no in-group percentiles to report.
        assert summary["latency_p50"] is None
        assert summary["cross_latency_p50"] > 0
    else:
        assert summary["latency_p50"] > 0
        assert "cross_latency_p50" not in summary


def test_a_later_workload_routes_to_what_an_earlier_one_deployed():
    """Every workload takes its own one-group view of a plain consortium."""
    deployment = make_deployment()
    first = run_contended_transfers(deployment, count=4, hot_accounts=1, pools=2)
    assert first.failure_count == 0
    pool = build_client_pools(deployment, pools=1)[0]
    supply = pool.query(CONTENDED_CONTRACT, "total_supply")
    deployment.env.run(supply)
    assert supply.value == 4 + 4  # four cold accounts of 1, one hot account of 4
    second = run_burst_transfers(deployment, count=4, pools=2)
    assert second.failure_count == 0


def test_sharded_workload_validation():
    deployment = make_sharded_deployment(1)
    with pytest.raises(WorkloadError, match="positive integer"):
        run_burst_transfers(deployment, count=0)
    with pytest.raises(WorkloadError, match="at least two shards"):
        run_burst_transfers(deployment, count=5, cross_shard_rate=0.1)
    with pytest.raises(WorkloadError, match="cross_shard_rate"):
        run_contended_transfers(deployment, count=5, cross_shard_rate=2.0)


# ----------------------------------------------------------------------
# Mixed multi-contract workloads: failure paths
# ----------------------------------------------------------------------
def test_mixed_workload_pauper_revert_is_counted_not_dropped():
    """An unfunded sender's transfer reverts and stays in the report.

    ``results[i]`` must line up with ``operations[i]`` even for failures:
    the revert is an observation the chaos oracles rely on, not noise to
    be filtered out.
    """
    deployment = make_sharded_deployment(1)
    operations = [
        MixedOperation(at=0.0, kind="transfer", sender=0, args={"to": 1, "amount": 5}),
        MixedOperation(at=0.5, kind="transfer", sender=1, args={"to": 2, "amount": 3}),
        MixedOperation(at=1.0, kind="transfer", sender=2, args={"to": 0, "amount": 2}),
    ]
    report = run_mixed_operations(
        deployment,
        operations,
        account_seeds=["acct/a", "acct/b", "acct/c"],
        genesis={0: 0},  # sender 0 becomes a pauper despite sending 5
        horizon=60.0,
    )
    assert len(report.results) == len(operations)
    assert report.unanswered_count == 0
    pauper = report.results[0]
    assert pauper is not None and not pauper.ok
    assert "insufficient funds" in pauper.error
    assert report.ok_count == 2
    assert report.genesis == [0, 3, 2]


def test_plan_mixed_genesis_funds_totals_and_leaves_paupers_at_zero():
    operations = [
        MixedOperation(at=0.0, kind="transfer", sender=0, args={"to": 1, "amount": 5}),
        MixedOperation(at=1.0, kind="transfer", sender=0, args={"to": 2, "amount": 7}),
        MixedOperation(at=2.0, kind="invest", sender=1, args={"amount": 9}),
    ]
    assert plan_mixed_genesis(operations, 3) == {0: 12, 1: 0, 2: 0}


def test_mixed_operation_validation_accepts_every_well_formed_kind():
    well_formed = [
        MixedOperation(at=0.0, kind="transfer", sender=0, args={"to": 1, "amount": 1}),
        MixedOperation(at=1.5, kind="cas_put", sender=1, args={"content_hex": "0xdead"}),
        MixedOperation(at=2.0, kind="vote", sender=0,
                       args={"election_id": "e1", "choice": "yes"}),
        MixedOperation(at=3.0, kind="invest", sender=1, args={"amount": 2}),
    ]
    for op in well_formed:
        op.validate(2)  # must not raise


def test_mixed_operation_validation_rejects_every_malformed_shape():
    malformed = [
        (MixedOperation(at=0.0, kind="mint", sender=0), "unknown mixed operation kind"),
        (MixedOperation(at=-1.0, kind="invest", sender=0, args={"amount": 1}),
         "non-negative"),
        (MixedOperation(at=0.0, kind="invest", sender=9, args={"amount": 1}),
         "account index"),
        (MixedOperation(at=0.0, kind="invest", sender="0", args={"amount": 1}),
         "account index"),
        (MixedOperation(at=0.0, kind="transfer", sender=0, args={"to": 0, "amount": 1}),
         "different account"),
        (MixedOperation(at=0.0, kind="transfer", sender=0, args={"to": 7, "amount": 1}),
         "different account"),
        (MixedOperation(at=0.0, kind="transfer", sender=0, args={"to": 1, "amount": 0}),
         "positive integer"),
        (MixedOperation(at=0.0, kind="transfer", sender=0, args={"to": 1, "amount": True}),
         "positive integer"),
        (MixedOperation(at=0.0, kind="invest", sender=0, args={"amount": -2}),
         "positive integer"),
        (MixedOperation(at=0.0, kind="cas_put", sender=0, args={"content_hex": "dead"}),
         "0x-hex"),
        (MixedOperation(at=0.0, kind="cas_put", sender=0), "0x-hex"),
        (MixedOperation(at=0.0, kind="vote", sender=0, args={"election_id": "e1"}),
         "election_id"),
        (MixedOperation(at=0.0, kind="vote", sender=0, args={"choice": "yes"}),
         "election_id"),
    ]
    for op, match in malformed:
        with pytest.raises(WorkloadError, match=match):
            op.validate(2)


def test_run_mixed_operations_preconditions_fail_before_any_traffic():
    deployment = make_sharded_deployment(1)
    transfer = MixedOperation(at=0.0, kind="transfer", sender=0,
                              args={"to": 1, "amount": 1})
    with pytest.raises(WorkloadError, match="at least one operation"):
        run_mixed_operations(deployment, [], account_seeds=["a", "b"])
    with pytest.raises(WorkloadError, match="at least two accounts"):
        run_mixed_operations(deployment, [transfer], account_seeds=["a"])
    with pytest.raises(WorkloadError, match="unknown mixed operation kind"):
        run_mixed_operations(
            deployment,
            [MixedOperation(at=0.0, kind="mint", sender=0)],
            account_seeds=["a", "b"],
        )
    # Every rejection above fired before any contract was deployed or
    # message sent.
    assert deployment.network.total_messages() == 0


def test_run_mixed_operations_rejects_a_horizon_inside_the_schedule():
    deployment = make_sharded_deployment(1)
    late = MixedOperation(at=50.0, kind="transfer", sender=0,
                          args={"to": 1, "amount": 1})
    with pytest.raises(WorkloadError, match="not after the last submission"):
        run_mixed_operations(
            deployment, [late], account_seeds=["a", "b"], horizon=10.0
        )
