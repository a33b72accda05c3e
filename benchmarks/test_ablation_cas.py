"""Ablation: CAS blob offloading keeps fingerprinting cheap (Section III-D1).

Compares the cost of fingerprinting a community contract whose state holds
large blobs inline against one that offloads them to the CAS system
contract and stores only the 32-byte references, confirming the design
rationale the paper gives for the CAS contract.
"""

from repro.contracts import ContentAddressableStorage, FastMoney, InvocationContext
from repro.contracts.state_store import KeyValueStore
from repro.crypto.keys import PrivateKey

from _harness import write_output

BLOBS = 200
BLOB_BYTES = 4_096


def build_states():
    sender = PrivateKey.from_seed("ablation-cas").address
    ctx = InvocationContext(sender=sender, tx_id="0x1", timestamp=0.0, cell_id="c", cycle=0)
    cas = ContentAddressableStorage("system.cas")

    inline_store = KeyValueStore()
    reference_store = KeyValueStore()
    for index in range(BLOBS):
        blob = bytes([index % 256]) * BLOB_BYTES
        inline_store.put(f"document/{index}", "0x" + blob.hex())
        stored = cas.invoke(
            InvocationContext(sender=sender, tx_id=f"0x{index}", timestamp=0.0, cell_id="c", cycle=0),
            "put", {"content_hex": "0x" + blob.hex()},
        )
        reference_store.put(f"document/{index}", stored["hash"])
    _ = ctx
    return inline_store, reference_store


def run_ablation():
    inline_store, reference_store = build_states()
    for store in (inline_store, reference_store):
        store.recompute_fingerprint()
    return {
        "inline_bytes": sum(len(str(v)) for _k, v in inline_store.items()),
        "reference_bytes": sum(len(str(v)) for _k, v in reference_store.items()),
    }


def test_ablation_cas_offloading(benchmark):
    # The benchmark fixture times the two full fingerprints; the committed
    # output carries only what is the same on every machine — the bytes a
    # full fingerprint has to hash, which is what its cost is proportional to.
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    ratio = result["inline_bytes"] / result["reference_bytes"]
    text = (
        f"community-contract state with {BLOBS} x {BLOB_BYTES}-byte documents\n"
        f"  inline blobs:   {result['inline_bytes']:>12,} bytes for a full fingerprint to hash\n"
        f"  CAS references: {result['reference_bytes']:>12,} bytes for a full fingerprint to hash\n"
        f"  fingerprinting work saved by CAS offloading: {ratio:.1f}x"
    )
    write_output("ablation_cas", text)

    assert ratio > 10.0


def test_fastmoney_transfer_microbenchmark(benchmark):
    """Raw per-transfer cost of the FastMoney contract (no protocol around it)."""
    sender = PrivateKey.from_seed("micro-sender").address
    contract = FastMoney("fastmoney", params={"genesis_balances": {sender.hex(): 10 ** 9}})
    counter = {"index": 0}

    def one_transfer():
        counter["index"] += 1
        ctx = InvocationContext(
            sender=sender, tx_id=f"0x{counter['index']:x}", timestamp=1.0, cell_id="c", cycle=0
        )
        contract.invoke(ctx, "transfer", {"to": "0x" + "ab" * 20, "amount": 1})

    benchmark(one_transfer)
    assert contract.query("transfer_count", {}) > 0
