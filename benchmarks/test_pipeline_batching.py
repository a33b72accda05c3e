"""Batched confirmation pipeline vs. the per-transaction baseline.

The scaled 20,000-transaction Fig. 10 burst runs twice on a two-cell
consortium — once with the per-transaction overlay (every forward and
confirmation is its own network message, as in the paper's prototype) and
once with the batched pipeline (per-destination batch envelopes flushed
at most once per scheduling quantum).  The two runs must be observably identical
(same ledger contents, same receipts modulo timing, same contract state
fingerprints) while the batched run exchanges at least 2x fewer simulated
inter-cell messages and performs no more canonical-JSON encodes (a count,
not a timing: no tier-1 outcome may depend on machine load).

Results are written both as rendered text and as the machine-readable
``BENCH_pipeline.json`` baseline at the repository root.
"""

import time

from repro.client import run_burst_transfers
from repro.crypto.fingerprint import snapshot_fingerprint
from repro.encoding import canonical_json

from _harness import azure_deployment, bench_scale, scaled_bursts, write_bench_json, write_output

#: Paper burst: 20,000 transactions (scaled by BLOCKUMULUS_BENCH_SCALE).
BURST = scaled_bursts()[-1]
CELLS = 2


#: Absolute simulated submission time: pinning it makes transaction ids
#: (and therefore contract state) bit-identical across the two modes.
SUBMIT_AT = 60.0


def run_mode(batched: bool):
    deployment = azure_deployment(CELLS, seed=7_000, message_batching=batched)
    encodes = 0
    encode = canonical_json.dumps

    def counting_encode(value):
        nonlocal encodes
        encodes += 1
        return encode(value)

    canonical_json.dumps = counting_encode
    started = time.perf_counter()
    try:
        report = run_burst_transfers(deployment, count=BURST, pools=8, submit_at=SUBMIT_AT)
    finally:
        # Host time goes to stdout, never into the committed baseline.
        print(f"[pipeline batched={batched}: {time.perf_counter() - started:.3f} s wall clock]")
        canonical_json.dumps = encode
    return deployment, report, encodes


def ledger_digest(deployment):
    """Timestamp-free ledger contents, comparable across modes."""
    rows = []
    for cell in deployment.cells:
        for entry in cell.ledger:
            data = entry.envelope.data
            rows.append(
                (
                    cell.node_name,
                    entry.envelope.sender.hex(),
                    str(data.get("contract")),
                    str(data.get("method")),
                    canonical_json.dumps(data.get("args", {})),
                    entry.status,
                )
            )
    return sorted(rows)


def receipt_digest(report):
    """Timing-free receipt contents, comparable across modes."""
    return sorted(
        (
            result.receipt.tx_id,
            result.receipt.contract,
            result.receipt.method,
            result.receipt.fingerprint_hex,
            canonical_json.dumps(result.receipt.result),
            tuple(sorted(result.receipt.cells())),
        )
        for result in report.successes
    )


def state_fingerprints(deployment):
    """Per-cell combined data snapshot fingerprints of the final state."""
    return {
        cell.node_name: "0x" + snapshot_fingerprint(cell.contracts.fingerprints()).hex()
        for cell in deployment.cells
    }


def inter_cell_traffic(deployment):
    nodes = [cell.node_name for cell in deployment.cells]
    messages = deployment.network.messages_among(nodes)
    bytes_total = sum(
        deployment.network.bytes_between(src, dst)
        for src in nodes
        for dst in nodes
        if src != dst
    )
    return messages, bytes_total


def mode_metrics(deployment, report, encodes):
    latencies = report.latencies()
    throughput = report.throughput()
    messages, bytes_total = inter_cell_traffic(deployment)
    metrics = {
        "transactions": len(report.results),
        "failures": report.failure_count,
        "canonical_encodes": encodes,
        "sim_makespan_s": round(throughput.makespan, 3),
        "throughput_tps": round(throughput.throughput, 1),
        "latency_p50_s": round(latencies.p50(), 4),
        "latency_p90_s": round(latencies.p90(), 4),
        "latency_p99_s": round(latencies.p99(), 4),
        "inter_cell_messages": messages,
        "inter_cell_bytes": bytes_total,
        "total_messages": deployment.network.total_messages(),
    }
    batchers = [cell.batcher for cell in deployment.cells]
    metrics["batches_sent"] = sum(b.batches_sent for b in batchers)
    metrics["items_coalesced"] = sum(b.items_coalesced for b in batchers)
    metrics["mean_batch_size"] = round(
        metrics["items_coalesced"] / max(1, metrics["batches_sent"]), 2
    )
    return metrics


def test_pipeline_batching(benchmark):
    def run_both():
        return {batched: run_mode(batched) for batched in (False, True)}

    runs = benchmark.pedantic(run_both, rounds=1, iterations=1)
    per_tx_deploy, per_tx_report = runs[False][:2]
    batched_deploy, batched_report = runs[True][:2]

    # Equivalence: same ledgers, receipts, and state fingerprints.
    ledgers_identical = ledger_digest(per_tx_deploy) == ledger_digest(batched_deploy)
    receipts_identical = receipt_digest(per_tx_report) == receipt_digest(batched_report)
    per_tx_fp = state_fingerprints(per_tx_deploy)
    batched_fp = state_fingerprints(batched_deploy)
    fingerprints_identical = (
        set(per_tx_fp.values()) == set(batched_fp.values()) and len(set(per_tx_fp.values())) == 1
    )

    per_tx = mode_metrics(*runs[False])
    batched = mode_metrics(*runs[True])
    reduction = per_tx["inter_cell_messages"] / max(1, batched["inter_cell_messages"])

    payload = {
        "benchmark": "pipeline_batching",
        "paper_burst": 20_000,
        "scale": bench_scale(),
        "consortium_size": CELLS,
        "burst": BURST,
        "modes": {"per_tx": per_tx, "batched": batched},
        "message_reduction_factor": round(reduction, 2),
        "identical_ledgers": ledgers_identical,
        "identical_receipts": receipts_identical,
        "identical_state_fingerprints": fingerprints_identical,
    }
    write_bench_json("pipeline", payload, seed=7_000)

    text = (
        f"Batched confirmation pipeline — {BURST}-tx burst on {CELLS} cells "
        f"(scale={bench_scale():.2f} of the paper's 20k burst)\n\n"
        f"{'metric':<24}{'per-tx':>14}{'batched':>14}\n" + "-" * 52 + "\n"
    )
    for key in (
        "canonical_encodes",
        "sim_makespan_s",
        "throughput_tps",
        "latency_p50_s",
        "latency_p90_s",
        "latency_p99_s",
        "inter_cell_messages",
        "inter_cell_bytes",
    ):
        text += f"{key:<24}{per_tx[key]:>14,}{batched[key]:>14,}\n"
    text += (
        f"\ninter-cell message reduction: {reduction:.1f}x"
        f"  (batched: {batched['batches_sent']} batches, "
        f"mean size {batched['mean_batch_size']})"
        f"\nidentical ledgers/receipts/fingerprints: "
        f"{ledgers_identical}/{receipts_identical}/{fingerprints_identical}"
    )
    write_output("pipeline_batching", text)

    # No transaction fails in either mode (the paper reports zero failures).
    assert per_tx["failures"] == 0 and batched["failures"] == 0
    # The two pipelines are observably the same system.
    assert ledgers_identical and receipts_identical and fingerprints_identical
    # The batched overlay saves at least 2x the inter-cell messages...
    assert reduction >= 2.0
    # ...and must not cost serialisation work: batch envelopes replace the
    # per-transaction forward and confirmation envelopes, so the batched
    # run encodes no more often.
    assert batched["canonical_encodes"] <= per_tx["canonical_encodes"]
