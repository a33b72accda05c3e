"""Data snapshots and the snapshot engine."""

import pytest

from repro.contracts import ContractRegistry, FastMoney, InvocationContext
from repro.core.snapshot import SnapshotEngine, SnapshotError
from repro.crypto.fingerprint import snapshot_fingerprint
from repro.crypto.keys import PrivateKey

ALICE = PrivateKey.from_seed("snap-alice").address


@pytest.fixture
def registry():
    reg = ContractRegistry()
    reg.register(FastMoney("fastmoney"))
    return reg


@pytest.fixture
def engine(registry):
    return SnapshotEngine("cell-0", registry, retain=3)


def mutate(registry, tx_id="0x1"):
    contract = registry.get("fastmoney")
    ctx = InvocationContext(sender=ALICE, tx_id=tx_id, timestamp=1.0, cell_id="cell-0", cycle=0)
    contract.invoke(ctx, "faucet", {"amount": 10})


def test_snapshot_contains_contract_fingerprints(engine, registry):
    snapshot = engine.take_snapshot(cycle=0, timestamp=10.0, first_sequence=0, last_sequence=5)
    assert "fastmoney" in snapshot.contract_fingerprints
    assert snapshot.fingerprint == snapshot_fingerprint(snapshot.contract_fingerprints)
    assert snapshot.fingerprint_hex().startswith("0x")
    assert "fastmoney" in snapshot.state_export


def test_snapshot_changes_with_state(engine, registry):
    first = engine.take_snapshot(cycle=0, timestamp=10.0, first_sequence=0, last_sequence=0)
    mutate(registry)
    second = engine.take_snapshot(cycle=1, timestamp=20.0, first_sequence=1, last_sequence=1)
    assert first.fingerprint != second.fingerprint


def test_snapshot_identical_for_identical_state(registry):
    engine_a = SnapshotEngine("cell-0", registry, retain=3)
    other_registry = ContractRegistry()
    other_registry.register(FastMoney("fastmoney"))
    engine_b = SnapshotEngine("cell-1", other_registry, retain=3)
    mutate(registry, "0xsame")
    mutate(other_registry, "0xsame")
    a = engine_a.take_snapshot(cycle=0, timestamp=10.0, first_sequence=0, last_sequence=0)
    b = engine_b.take_snapshot(cycle=0, timestamp=11.0, first_sequence=0, last_sequence=0)
    assert a.fingerprint == b.fingerprint


def test_excluded_contract_left_out(engine, registry):
    registry.exclude("fastmoney")
    snapshot = engine.take_snapshot(cycle=0, timestamp=10.0, first_sequence=0, last_sequence=0)
    assert "fastmoney" not in snapshot.contract_fingerprints
    assert snapshot.excluded_contracts == ("fastmoney",)


def test_out_of_order_cycles_rejected(engine):
    engine.take_snapshot(cycle=1, timestamp=10.0, first_sequence=0, last_sequence=0)
    with pytest.raises(SnapshotError):
        engine.take_snapshot(cycle=1, timestamp=20.0, first_sequence=0, last_sequence=0)
    with pytest.raises(SnapshotError):
        engine.take_snapshot(cycle=0, timestamp=30.0, first_sequence=0, last_sequence=0)


def test_retention_pruning(engine):
    for cycle in range(5):
        engine.take_snapshot(cycle=cycle, timestamp=float(cycle), first_sequence=0, last_sequence=0)
    assert engine.retained_cycles() == [2, 3, 4]
    assert engine.latest_cycle == 4
    assert engine.has(4) and not engine.has(0)
    with pytest.raises(SnapshotError):
        engine.get(0)


def test_latest_requires_a_snapshot(registry):
    engine = SnapshotEngine("cell-0", registry)
    with pytest.raises(SnapshotError):
        engine.latest()
    assert engine.latest_cycle is None


def test_minimum_retention_enforced(registry):
    with pytest.raises(SnapshotError):
        SnapshotEngine("cell-0", registry, retain=1)


def test_wire_form_and_storage_accounting(engine, registry):
    mutate(registry)
    engine.take_snapshot(cycle=0, timestamp=10.0, first_sequence=0, last_sequence=0)
    wire = engine.latest().to_wire()
    assert wire["cycle"] == 0 and "state_export" in wire
    slim = engine.latest().to_wire(include_state=False)
    assert "state_export" not in slim
    assert engine.storage_bytes() > 0


# ----------------------------------------------------------------------
# Copy-on-write state exports
# ----------------------------------------------------------------------
def test_snapshot_export_is_lazy_until_downloaded(engine, registry):
    mutate(registry)
    snapshot = engine.take_snapshot(cycle=0, timestamp=10.0, first_sequence=0, last_sequence=0)
    assert not snapshot.state_export.materialized
    # Membership checks do not force a copy either.
    assert "fastmoney" in snapshot.state_export
    assert not snapshot.state_export.materialized
    # The download (wire form) materializes the frozen export.
    wire = snapshot.to_wire()
    assert snapshot.state_export.materialized
    assert wire["state_export"]["fastmoney"]


def test_mutation_after_snapshot_does_not_change_the_export(engine, registry):
    mutate(registry, "0xbefore")
    snapshot = engine.take_snapshot(cycle=0, timestamp=10.0, first_sequence=0, last_sequence=0)
    # An auditor downloading before and after later mutations must see the
    # same frozen state; mutate *before* the first download to exercise the
    # copy-on-write path rather than the cached-materialization path.
    mutate(registry, "0xafter")
    exported = snapshot.to_wire()["state_export"]["fastmoney"]
    fresh = FastMoney("fastmoney")
    fresh.restore_state(exported)
    assert fresh.fingerprint() == snapshot.contract_fingerprints["fastmoney"]
    assert fresh.query("balance_of", {"account": ALICE.hex()}) == 10
    # The live contract has moved on.
    assert registry.get("fastmoney").query("balance_of", {"account": ALICE.hex()}) == 20


def test_pruned_snapshot_releases_its_export(engine, registry):
    store = registry.get("fastmoney").store
    for cycle in range(5):
        engine.take_snapshot(cycle=cycle, timestamp=float(cycle), first_sequence=0, last_sequence=0)
    # Only the retained snapshots still track the store.
    assert store.pending_export_count == 3
    assert engine.retained_cycles() == [2, 3, 4]


def test_storage_bytes_cached_per_snapshot(engine, registry, monkeypatch):
    from repro.encoding import canonical_json

    mutate(registry)
    engine.take_snapshot(cycle=0, timestamp=10.0, first_sequence=0, last_sequence=0)
    engine.take_snapshot(cycle=1, timestamp=20.0, first_sequence=1, last_sequence=1)
    calls = {"count": 0}
    original = canonical_json.dump_bytes

    def counting_dump(obj):
        calls["count"] += 1
        return original(obj)

    monkeypatch.setattr(canonical_json, "dump_bytes", counting_dump)
    first = engine.storage_bytes()
    serializations_first_pass = calls["count"]
    second = engine.storage_bytes()
    assert first == second > 0
    # The second call served every size from the cache.
    assert calls["count"] == serializations_first_pass
