"""The batched overlay pipeline: codec, equivalence with singletons, savings."""

from collections import Counter
from contextlib import ExitStack
from unittest import mock

import pytest

from repro.client import BlockumulusClient, CasClient, run_burst_transfers
from repro.contracts import state_store
from repro.contracts.state_store import KeyValueStore
from repro.core.batching import BatchDispatcher
from repro.core.receipts import Confirmation, ConfirmationBatch, LinkConfirmation, ReceiptError
from repro.crypto import keccak, secp256k1
from repro.crypto.keccak import Keccak256
from repro.crypto.keys import PrivateKey
from repro.encoding import canonical_json
from repro.messages import envelope as envelope_module
from repro.messages import signer as signer_module
from repro.messages.envelope import Envelope
from repro.messages.opcodes import Opcode
from repro.messages.payload import Payload
from repro.messages.signer import EcdsaSigner, SimulatedSigner, register_consortium_keys
from repro.sim import Environment
from tests.conftest import make_deployment


# ----------------------------------------------------------------------
# ConfirmationBatch codec
# ----------------------------------------------------------------------
def test_confirmation_batch_round_trip_preserves_signatures():
    signer = EcdsaSigner.from_seed("confirm-batch-cell")
    forwarded = Envelope.create(
        signer=EcdsaSigner.from_seed("confirm-batch-client"), recipient=signer.address,
        operation=Opcode.TX_SUBMIT, data={"contract": "fastmoney", "method": "faucet"},
        timestamp=1.0, nonce="0x01",
    )
    confirmations = [
        Confirmation.create(
            signer,
            tx_id=f"0x{index:064x}",
            contract="fastmoney",
            fingerprint_hex="0x" + "11" * 32,
            status="executed" if index % 2 == 0 else "rejected",
            timestamp=2.5,
            error=None if index % 2 == 0 else "insufficient balance",
        )
        for index in range(3)
    ]
    batch = ConfirmationBatch(
        tuple(LinkConfirmation.of(confirmation, forwarded) for confirmation in confirmations)
    )
    # Full canonical-JSON round trip, as the envelope data field travels.
    raw = canonical_json.loads(canonical_json.dump_bytes(batch.to_data()))
    parsed = ConfirmationBatch.from_data(raw)
    assert len(parsed) == 3
    for original, item in zip(confirmations, parsed.confirmations):
        # What the receiver holds already — the signer, its scheme and the
        # called contract — does not travel.
        assert {"cell", "scheme", "contract"}.isdisjoint(item.to_wire())
        rebuilt = item.confirmation(signer.address, signer.scheme, forwarded)
        assert rebuilt == original and rebuilt.verify()
        assert rebuilt.body() == original.body()


def test_malformed_confirmation_batches_rejected():
    with pytest.raises(ReceiptError):
        ConfirmationBatch(confirmations=())
    with pytest.raises(ReceiptError):
        ConfirmationBatch.from_data({})
    with pytest.raises(ReceiptError):
        ConfirmationBatch.from_data({"confirmations": [{"cell": "0x00"}]})


# ----------------------------------------------------------------------
# Batched vs. singleton runs are observably identical (except cheaper)
# ----------------------------------------------------------------------
BLOBS = [f"pipeline-blob-{index}".encode() for index in range(8)]


def run_cas_burst(batched: bool):
    """Submit the same 8 simultaneous CAS uploads through one deployment."""
    deployment = make_deployment(message_batching=batched)
    client = BlockumulusClient(
        deployment,
        signer=deployment.make_client_signer("pipeline-client"),
        node_name="pipeline-client",
    )
    cas = CasClient(client)
    events = []
    for index, blob in enumerate(BLOBS):
        signer = deployment.make_client_signer(f"pipeline-account/{index}")
        events.append(cas.put(blob, signer=signer))
    deployment.env.run(deployment.env.all_of(events))
    return deployment, [event.value for event in events]


@pytest.fixture(scope="module")
def burst_runs():
    return {batched: run_cas_burst(batched) for batched in (False, True)}


def test_both_modes_confirm_every_transaction(burst_runs):
    for batched, (_deployment, results) in burst_runs.items():
        assert all(result.ok for result in results), f"failures with batched={batched}"


def test_ledgers_identical_across_modes(burst_runs):
    def ledger_digest(deployment):
        digests = []
        for cell in deployment.cells:
            entries = sorted(
                (entry.tx_id, entry.status, entry.contract, repr(entry.result))
                for entry in cell.ledger
            )
            digests.append(entries)
        return digests

    singleton, batched = burst_runs[False][0], burst_runs[True][0]
    assert ledger_digest(singleton) == ledger_digest(batched)


def test_receipts_identical_across_modes(burst_runs):
    def receipt_digest(results):
        return sorted(
            (
                result.receipt.tx_id,
                result.receipt.contract,
                result.receipt.fingerprint_hex,
                repr(result.receipt.result),
                tuple(sorted(result.receipt.cells())),
            )
            for result in results
        )

    assert receipt_digest(burst_runs[False][1]) == receipt_digest(burst_runs[True][1])
    for result in burst_runs[True][1]:
        assert result.receipt.verify()


def test_contract_fingerprints_identical_across_modes(burst_runs):
    def fingerprints(deployment):
        return {
            cell.node_name: {
                name: cell.contracts.get(name).fingerprint_hex()
                for name in cell.contracts.names()
            }
            for cell in deployment.cells
        }

    assert fingerprints(burst_runs[False][0]) == fingerprints(burst_runs[True][0])


def test_batching_at_least_halves_inter_cell_messages(burst_runs):
    def inter_cell_messages(deployment):
        nodes = [cell.node_name for cell in deployment.cells]
        return deployment.network.messages_among(nodes)

    singleton = inter_cell_messages(burst_runs[False][0])
    batched = inter_cell_messages(burst_runs[True][0])
    # 8 simultaneous transactions: 8 forwards + 8 confirmations per-tx, a
    # handful of batch envelopes when coalesced.
    assert singleton == 2 * len(BLOBS)
    assert batched * 2 <= singleton

    service_cell = burst_runs[True][0].cell(0)
    stats = service_cell.batcher.statistics()
    assert stats["items_coalesced"] >= len(BLOBS)
    assert stats["mean_batch_size"] > 1.0


def test_singleton_deployment_sends_every_item_alone(burst_runs):
    """Batching off is the one dispatcher without a quantum: a message per item."""
    deployment = burst_runs[False][0]
    for cell in deployment.cells:
        assert cell.batcher.quantum is None
        stats = cell.statistics()["batching"]
        assert stats["batches_sent"] == stats["items_coalesced"] > 0
        assert stats["mean_batch_size"] == 1.0


# ----------------------------------------------------------------------
# Encode budget: the wire path encodes once per signed object
# ----------------------------------------------------------------------
def test_batched_burst_stays_within_the_encode_budget(monkeypatch):
    """A count, not a timing: each payload is encoded once by its signer and
    once by each cell that parsed it off the wire, and sizing, verifying the
    sender's own object and taking the transaction id are free.

    Statement bodies (confirmations) no longer pass through ``dumps``: they
    are written from the field declarations (``SignedStatement.body``), so
    the ~3 encodes per transaction they used to add are out from under this
    counter; ``test_body_equals_the_generic_encoding_of_the_signed_fields``
    holds their bytes.  The budget is that invariant itself, not a ratio per
    transaction: how many batch envelopes a burst signs is the flush
    policy's business (``test_sim_burst_schedules_exactly_the_events_it_always_did``
    pins it), and each one is one payload signed and one parsed.
    """
    transactions, pools = 50, 2
    deployment = make_deployment(signature_scheme="sim")
    counts = Counter()
    encode = canonical_json.dumps
    create = Envelope.create.__func__
    from_dict = Payload.from_dict.__func__

    def counted_create(cls, *args, **kwargs):
        counts["signed"] += 1
        return create(cls, *args, **kwargs)

    def counted_from_dict(cls, raw, *supplied):
        counts["parsed"] += 1
        return from_dict(cls, raw, *supplied)

    monkeypatch.setattr(
        canonical_json, "dumps", lambda value: counts.update(["encodes"]) or encode(value)
    )
    monkeypatch.setattr(Envelope, "create", classmethod(counted_create))
    monkeypatch.setattr(Payload, "from_dict", classmethod(counted_from_dict))
    report = run_burst_transfers(deployment, count=transactions, pools=pools)
    assert report.failure_count == 0 and len(report.results) == transactions
    # One funding transaction per pool rides through the same pipeline.
    # Measured 168 = 116 signed + 52 parsed (serial) and 170 = 118 + 52
    # (REPRO_EXECUTION_LANES=4): 3.23 / 3.27 per transaction.
    assert counts["parsed"] == transactions + pools
    assert counts["encodes"] == counts["signed"] + counts["parsed"]


# ----------------------------------------------------------------------
# Kernel and store budgets: counts of the same 50-transfer, 2-pool burst
# ----------------------------------------------------------------------
def _counted_sim_burst(*targets, **config) -> tuple[Counter, int]:
    """Calls of each ``(holder, name)`` over the burst; and its transaction count."""
    transactions, pools = 50, 2
    deployment = make_deployment(signature_scheme="sim", **config)
    calls: Counter = Counter()
    with ExitStack() as stack:
        for holder, name in targets:
            _counting(stack, holder, name, calls)
        report = run_burst_transfers(deployment, count=transactions, pools=pools)
    assert report.failure_count == 0 and len(report.results) == transactions
    return calls, transactions


def test_sim_burst_schedules_exactly_the_events_it_always_did():
    """The kernel may get cheaper per event, never by changing what is
    scheduled: 1,295 ``Environment.step`` calls (24.90 per transaction, the
    two funding transactions included) and 12 batch envelopes.  One event
    more or fewer moves every digest.

    Until the flush policy changed the schedule, every kernel took 1,283
    steps and 8 batch envelopes here.  A destination idle for a quantum is
    now flushed at once instead of one quantum later, which signs one
    batch envelope more per destination and direction at the idle→busy
    edge (4 more) and schedules 12 events more.  The kernel did not
    change: ``tests/sim/test_events.py`` holds it to the one it replaced."""
    calls, _transactions = _counted_sim_burst(
        (Environment, "step"), (BatchDispatcher, "_send"), execution_lanes=1
    )
    assert calls["step"] == 1295
    assert calls["_send"] == 12


def test_a_store_write_costs_one_entry_digest():
    """``KeyValueStore`` hashes the value it writes and nothing else: the
    digest of the entry it replaces is remembered, not recomputed (before
    PR 24: 610 hashes for these 408 writes, one more per rewritten key)."""
    calls, transactions = _counted_sim_burst(
        (state_store, "fast_hash"),  # the store's own reference to it
        (KeyValueStore, "put"), (KeyValueStore, "increment"),
    )
    writes = calls["put"] + calls["increment"]
    assert writes > 4 * transactions
    assert calls["fast_hash"] == writes


# ----------------------------------------------------------------------
# Crypto budget: what one real-ECDSA transaction may cost, in operations
# ----------------------------------------------------------------------
def _counting(stack: ExitStack, holder, name: str, calls: Counter) -> None:
    original = getattr(holder, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    stack.enter_context(mock.patch.object(holder, name, counted))


@pytest.mark.parametrize("cells_registered", [False, True], ids=["recovered", "registered"])
def test_ecdsa_burst_stays_within_the_crypto_budget(cells_registered):
    """Counts, not timings, so that a cost cannot come back unnoticed.

    Per transaction, 2 cells: each signed object is signed once and its
    bytes are Keccak-hashed once in the process, by whoever needs the digest
    first; an object is recovered once however many cells check it; a
    recovery is one double-scalar pass (~128 doublings over the two halves of
    the split scalar, ~95 additions) with no second verification behind it, a
    signature at most 34 additions and no doubling; an address is hashed when
    its key is first used, not per message.

    Clearing the registry after building the deployment also forgets the
    cells' keys, so every signature is recovered: the path a client takes.
    With the keys registered again, as a deployment leaves them, a peer's
    signature is checked against its key instead.
    """
    transactions, pools = 8, 2
    deployment = make_deployment()  # real ECDSA; builds the fixed-base table
    registered = dict(SimulatedSigner._registry)  # other modules' signers live there
    SimulatedSigner.clear_registry()
    SimulatedSigner._registry.update(registered)
    if cells_registered:
        register_consortium_keys(deployment.cell_signers)
    calls: Counter = Counter()
    with ExitStack() as stack:
        _counting(stack, signer_module, "recover_address", calls)
        _counting(stack, PrivateKey, "sign", calls)
        _counting(stack, Keccak256, "digest", calls)
        _counting(stack, keccak, "_keccak_f1600", calls)
        _counting(stack, secp256k1, "_jacobian_double", calls)
        _counting(stack, secp256k1, "_jacobian_add_affine", calls)
        report = run_burst_transfers(deployment, count=transactions, pools=pools)
    assert report.failure_count == 0 and len(report.results) == transactions
    per_tx = {name: count / (transactions + pools) for name, count in calls.items()}
    if cells_registered:
        # Each ceiling at or below the recovered case's below; only clients'
        # keys are recovered.  A check against a known key doubles too, so
        # doublings are budgeted per transaction (132 per recovery below
        # allows 369.6).
        assert per_tx["sign"] <= 4.8                   # measured 4.8
        assert per_tx["recover_address"] <= 1.0        # measured 1.0
        assert per_tx["digest"] <= 5.4                 # measured 5.2
        assert per_tx["_keccak_f1600"] <= 24.5         # measured 23.8
        group_operations = per_tx["_jacobian_double"] + per_tx["_jacobian_add_affine"]
        assert group_operations <= 550                 # measured 529.5 (610.1)
        assert per_tx["_jacobian_double"] <= 158       # measured 152.7
        return
    # "measured" is this code; in brackets the whole-scalar generator table,
    # then the kernels before the GLV split and the tables, then the
    # bit-serial kernels.
    assert per_tx["sign"] <= 4.8               # measured 4.8 (4.8; 4.8; 4.8)
    assert per_tx["recover_address"] <= 2.8    # measured 2.8 (2.8; 2.8; 3.8)
    assert per_tx["digest"] <= 5.6             # measured 5.4 (5.4; 10.8; 20.6)
    assert per_tx["_keccak_f1600"] <= 24.5     # measured 24.0 (24.0; 48.2)
    group_operations = per_tx["_jacobian_double"] + per_tx["_jacobian_add_affine"]
    assert group_operations <= 770             # measured 745.5 (826; 1,521; 11,049)
    # One recovery more per transaction would be ~220 group operations, one
    # more scalar multiplication per verify ~170, one message hashed twice
    # ~5 permutations: each breaks a ceiling.
    assert per_tx["_jacobian_double"] / per_tx["recover_address"] <= 132  # measured 126.6 (254.4)


def test_only_client_signatures_are_recovered():
    """A cell checks a peer's signature against the peer's registered key.

    So a 2-cell burst recovers exactly one key per client-signed envelope
    the cells verify (each transfer and each pool's funding transaction,
    once however many cells check it), and never a cell's: 28 recoveries
    for these 10 transactions before cells were registered.
    """
    transactions, pools = 8, 2
    deployment = make_deployment()  # registers both cells' keys
    cells = {cell.address for cell in deployment.cells}
    signer_module._VERIFIED_ECDSA.clear()  # earlier tests may have checked these bytes
    verify = signer_module.verify_signature
    client_checks: set = set()

    def verify_noting_clients(scheme, address, message, signature):
        if address not in cells:
            client_checks.add((address, message, signature))
        return verify(scheme, address, message, signature)

    calls: Counter = Counter()
    with ExitStack() as stack:
        _counting(stack, signer_module, "recover_address", calls)
        for module in (signer_module, envelope_module):  # every caller's global
            stack.enter_context(mock.patch.object(module, "verify_signature",
                                                  verify_noting_clients))
        report = run_burst_transfers(deployment, count=transactions, pools=pools)
    assert report.failure_count == 0 and len(report.results) == transactions
    assert calls["recover_address"] == len(client_checks) == transactions + pools

