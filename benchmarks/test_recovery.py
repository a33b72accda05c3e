"""Recovery benchmark: crash–rejoin latency and message cost vs. log length.

For each log length N the benchmark crashes one cell of a three-cell
consortium after an anchored snapshot, runs N further transactions against
the surviving quorum, and then recovers the crashed cell through the full
pipeline (snapshot download, ledger backfill, tail replay with per-entry
fingerprint matching, quorum rejoin).  Recorded per run:

* recovery latency (simulated seconds from sync request to readmission),
* message and byte cost of the recovery exchange,
* entries backfilled vs. replayed,
* whether ledgers and contract fingerprints are identical across all
  cells after the rejoin (they must be — that is the acceptance bar).

A final matrix point recovers the cell **while the consortium is serving
open-loop traffic**: the rejoin handshake's admitted-head extension and
the post-readmit backfill have to close the in-flight window, retries
must fetch only deltas (one first sync per recovery, which moves at most
one snapshot), and every client receipt issued during the recovery must
still be honoured.

Results land in ``benchmarks/output/recovery.txt`` and the machine-readable
baseline ``BENCH_recovery.json`` at the repository root.
"""

from __future__ import annotations

from repro.client import BlockumulusClient, FastMoneyClient
from repro.core.recovery import RecoveryStage

from _harness import azure_deployment, bench_scale, write_bench_json, write_output

#: Post-crash transaction counts (the replayed log lengths).
LOG_LENGTHS = (25, 50, 100)
#: Transactions landed before the crash (covered by the donor snapshot).
WARMUP_TRANSACTIONS = 20
#: Open-loop arrival rate (tx/s) kept running through the under-load
#: recovery point.
UNDER_LOAD_RATE_HZ = 10.0


def _sequential_transfers(deployment, fastmoney, count: int, destination: str) -> None:
    for _ in range(count):
        event = fastmoney.transfer(destination, 1)
        deployment.env.run(event)
        assert event.value.ok, event.value.error


def _state_fingerprints(cell) -> dict[str, str]:
    return {name: cell.contracts.get(name).fingerprint_hex() for name in cell.contracts.names()}


def _crash_rejoin_run(log_length: int) -> dict:
    deployment = azure_deployment(cells=3, report_period=600.0)
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(10_000))
    _sequential_transfers(deployment, fastmoney, WARMUP_TRANSACTIONS, "0x" + "aa" * 20)

    # Cross the report boundary so the donor has an anchored snapshot.
    deployment.run(until=601.0)
    assert deployment.cell(0).snapshots.latest_cycle == 0

    deployment.crash_cell(2)
    deployment.exclude_cell(2)
    _sequential_transfers(deployment, fastmoney, log_length, "0x" + "bb" * 20)

    recovery = deployment.recover_cell(2)
    deployment.env.run(recovery)
    result = recovery.value
    assert result.ok, result.reason
    deployment.run(until=deployment.env.now + 5.0)  # readmit commits land

    digests = {tuple(map(tuple, cell.ledger.sync_digest())) for cell in deployment.cells}
    fingerprints = {
        tuple(sorted(_state_fingerprints(cell).items())) for cell in deployment.cells
    }
    return {
        "mode": "quiesced",
        "log_length": log_length,
        "backfilled": result.backfilled,
        "replayed": result.replayed,
        "recovery_latency_s": round(result.duration, 6),
        "messages": result.messages_used,
        "bytes": result.bytes_used,
        "readmitted": result.readmitted,
        "acks": result.ack_count,
        "attempts": result.attempts,
        "delta_syncs": result.delta_syncs,
        "live_backfilled": result.live_backfilled,
        "backfill_rounds": result.backfill_rounds,
        "ledgers_identical": len(digests) == 1,
        "fingerprints_identical": len(fingerprints) == 1,
    }


def _recovery_under_load_run(log_length: int) -> dict:
    """Recover while open-loop traffic keeps arriving at the full rate.

    The submitter never pauses for the recovery: transactions land at the
    donor (and are forwarded consortium-wide) throughout the sync, vote,
    and backfill phases.  The point exists to hold three lines in CI:

    * the rejoin converges without quiescing (the pre-fix corpus had to
      stop traffic before every recovery),
    * retries and backfill move **deltas only** — one first sync per
      recovery, which moves at most one snapshot, regardless of attempts,
    * every client receipt issued during the window is still honoured.
    """
    deployment = azure_deployment(cells=3, report_period=600.0)
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    env = deployment.env
    deployment.env.run(fastmoney.faucet(10_000))
    _sequential_transfers(deployment, fastmoney, WARMUP_TRANSACTIONS, "0x" + "aa" * 20)

    deployment.run(until=601.0)
    assert deployment.cell(0).snapshots.latest_cycle == 0

    deployment.crash_cell(2)
    deployment.exclude_cell(2)
    _sequential_transfers(deployment, fastmoney, log_length, "0x" + "bb" * 20)

    # Open-loop arrivals at UNDER_LOAD_RATE_HZ through the whole recovery.
    in_flight: list = []
    stop = {"now": False}

    def traffic():
        while not stop["now"]:
            in_flight.append(fastmoney.transfer("0x" + "cc" * 20, 1))
            yield env.timeout(1.0 / UNDER_LOAD_RATE_HZ)

    env.process(traffic())
    syncs_before = deployment.metrics.counter("cell-0/syncs_served")
    recovery = deployment.recover_cell(2)
    env.run(recovery)
    stop["now"] = True
    result = recovery.value
    assert result.ok, result.reason
    submitted_during = len(in_flight)
    deployment.run(until=env.now + 5.0)  # drain receipts + readmit commits

    # Delta bound: one first sync, everything else deltas.
    syncs_served = deployment.metrics.counter("cell-0/syncs_served") - syncs_before
    assert syncs_served == 1 + result.delta_syncs
    assert result.delta_syncs <= (result.attempts - 1) + result.backfill_rounds
    assert result.attempts <= RecoveryStage.REJOIN_ATTEMPTS
    assert result.backfill_rounds <= RecoveryStage.BACKFILL_ROUNDS

    # Every receipt issued while the recovery ran was honoured.
    receipts = [event.value for event in in_flight]
    assert receipts and all(receipt.ok for receipt in receipts)

    # Under concurrent traffic neither per-entry *state* fingerprints nor
    # cross-cell admission *order* are invariants (racing forwards admit
    # in per-cell arrival order at the live cells too), so convergence is
    # judged on what the protocol actually guarantees: the same fully
    # executed transaction set everywhere, and identical final contract
    # state.
    entry_sets = {
        frozenset((row[1], row[2]) for row in cell.ledger.sync_digest())
        for cell in deployment.cells
    }
    fingerprints = {
        tuple(sorted(_state_fingerprints(cell).items())) for cell in deployment.cells
    }
    return {
        "mode": "under_load",
        "log_length": log_length,
        "load_rate_hz": UNDER_LOAD_RATE_HZ,
        "submitted_during_recovery": submitted_during,
        "backfilled": result.backfilled,
        "replayed": result.replayed,
        "recovery_latency_s": round(result.duration, 6),
        "messages": result.messages_used,
        "bytes": result.bytes_used,
        "readmitted": result.readmitted,
        "acks": result.ack_count,
        "attempts": result.attempts,
        "delta_syncs": result.delta_syncs,
        "live_backfilled": result.live_backfilled,
        "backfill_rounds": result.backfill_rounds,
        "fingerprint_skews": result.fingerprint_skews,
        "ledgers_identical": len(entry_sets) == 1,
        "fingerprints_identical": len(fingerprints) == 1,
    }


def test_recovery_latency_and_message_cost():
    runs = [_crash_rejoin_run(length) for length in LOG_LENGTHS]

    for run in runs:
        # The full downtime log was recovered and the consortium converged.
        assert run["replayed"] == run["log_length"]
        assert run["readmitted"] and run["ledgers_identical"] and run["fingerprints_identical"]
        assert run["messages"] > 0 and run["recovery_latency_s"] > 0
        # Quiesced recoveries take the backfill fast path: the ack-carried
        # admitted heads already match the synced ledger, so no extra
        # round trips are spent.
        assert run["attempts"] == 1 and run["delta_syncs"] == 0
        assert run["live_backfilled"] == 0 and run["backfill_rounds"] == 0
    # Longer logs cost more to replay (deterministic, same seed per run).
    assert runs[-1]["recovery_latency_s"] >= runs[0]["recovery_latency_s"]
    assert runs[-1]["bytes"] >= runs[0]["bytes"]

    under_load = _recovery_under_load_run(LOG_LENGTHS[0])
    assert under_load["readmitted"]
    assert under_load["ledgers_identical"] and under_load["fingerprints_identical"]
    runs.append(under_load)

    lines = [
        "Recovery cost vs. post-crash log length (3 cells, Azure-B1ms model)",
        f"{'mode':>11} {'log':>5} {'backfill':>9} {'replayed':>9} {'latency [s]':>12} "
        f"{'messages':>9} {'bytes':>12} {'live bf':>8}",
    ]
    for run in runs:
        lines.append(
            f"{run['mode']:>11} {run['log_length']:>5} {run['backfilled']:>9} "
            f"{run['replayed']:>9} {run['recovery_latency_s']:>12.4f} "
            f"{run['messages']:>9} {run['bytes']:>12} {run['live_backfilled']:>8}"
        )
    lines.append(
        "ledgers and contract fingerprints identical across all cells after "
        "every crash-rejoin cycle"
    )
    lines.append(
        f"under-load point: {under_load['load_rate_hz']:.0f} tx/s open-loop arrivals "
        f"throughout recovery, {under_load['submitted_during_recovery']} submitted "
        f"mid-recovery, every receipt honoured, one first sync + "
        f"{under_load['delta_syncs']} delta sync(s)"
    )
    write_output("recovery", "\n".join(lines))
    write_bench_json(
        "recovery",
        {
            "scale": bench_scale(),
            "consortium_size": 3,
            "warmup_transactions": WARMUP_TRANSACTIONS,
            "under_load_rate_hz": UNDER_LOAD_RATE_HZ,
            "runs": runs,
        },
    )
