"""KeyValueStore: journaling, incremental fingerprints, cloning."""

import pytest

from repro.contracts.state_store import EMPTY_FINGERPRINT, KeyValueStore, StoreError


def test_put_get_delete():
    store = KeyValueStore()
    store.put("a", 1)
    assert store.get("a") == 1
    assert store.contains("a")
    store.delete("a")
    assert store.get("a") is None
    assert len(store) == 0


def test_require_raises_for_missing_key():
    with pytest.raises(StoreError):
        KeyValueStore().require("missing")


def test_keys_and_items_sorted_with_prefix():
    store = KeyValueStore({"b/2": 2, "a/1": 1, "b/1": 3})
    assert store.keys() == ["a/1", "b/1", "b/2"]
    assert store.keys("b/") == ["b/1", "b/2"]
    assert list(store.items("b/")) == [("b/1", 3), ("b/2", 2)]


def test_increment():
    store = KeyValueStore()
    assert store.increment("count") == 1
    assert store.increment("count", 4) == 5


def test_non_string_keys_rejected():
    with pytest.raises(StoreError):
        KeyValueStore().put(5, "value")


def test_empty_store_fingerprint():
    assert KeyValueStore().fingerprint() == EMPTY_FINGERPRINT


def test_fingerprint_tracks_content_not_history():
    a = KeyValueStore()
    a.put("x", 1)
    a.put("y", 2)
    a.delete("x")
    b = KeyValueStore()
    b.put("y", 2)
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_matches_recomputation_after_updates():
    store = KeyValueStore()
    for index in range(50):
        store.put(f"key-{index % 7}", index)
        if index % 3 == 0:
            store.delete(f"key-{index % 5}")
    assert store.fingerprint() == store.recompute_fingerprint()


def test_fingerprint_insertion_order_independent():
    a = KeyValueStore()
    b = KeyValueStore()
    a.put("x", 1)
    a.put("y", 2)
    b.put("y", 2)
    b.put("x", 1)
    assert a.fingerprint() == b.fingerprint()


def test_journal_commit_keeps_writes():
    store = KeyValueStore({"balance": 10})
    store.begin()
    store.put("balance", 5)
    store.commit()
    assert store.get("balance") == 5


def test_journal_rollback_restores_values_and_fingerprint():
    store = KeyValueStore({"balance": 10})
    before = store.fingerprint()
    store.begin()
    store.put("balance", 5)
    store.put("new", "entry")
    store.delete("balance")
    store.rollback()
    assert store.get("balance") == 10
    assert not store.contains("new")
    assert store.fingerprint() == before


def test_journal_misuse_raises():
    store = KeyValueStore()
    with pytest.raises(StoreError):
        store.commit()
    with pytest.raises(StoreError):
        store.rollback()
    store.begin()
    with pytest.raises(StoreError):
        store.begin()


def test_clone_snapshot_captures_fingerprint():
    store = KeyValueStore({"a": 1})
    snapshot = store.clone_snapshot()
    assert snapshot.fingerprint == store.fingerprint()
    assert snapshot.entry_count == 1
    assert snapshot.fingerprint_hex().startswith("0x")
    store.put("b", 2)
    assert snapshot.fingerprint != store.fingerprint()


def test_export_and_restore_state():
    store = KeyValueStore({"a": {"nested": [1, 2]}, "b": 2})
    exported = store.export_state()
    exported["a"]["nested"].append(3)  # the export is a deep copy
    assert store.get("a") == {"nested": [1, 2]}

    other = KeyValueStore()
    other.restore_state(store.export_state())
    assert other.fingerprint() == store.fingerprint()


def test_restore_inside_transaction_rejected():
    store = KeyValueStore()
    store.begin()
    with pytest.raises(StoreError):
        store.restore_state({})


def test_increment_non_numeric_value_raises_store_error():
    store = KeyValueStore({"label": "not a number", "flag": True})
    with pytest.raises(StoreError):
        store.increment("label")
    with pytest.raises(StoreError):
        store.increment("flag")
    # The failed increments changed nothing.
    assert store.get("label") == "not a number"


# ----------------------------------------------------------------------
# Copy-on-write exports
# ----------------------------------------------------------------------
def test_cow_export_freezes_state_at_export_time():
    store = KeyValueStore({"a": 1, "b": {"nested": [1]}})
    export = store.cow_export()
    assert not export.materialized
    store.put("a", 2)
    store.delete("b")
    store.put("c", 3)
    frozen = export.materialize()
    assert frozen == {"a": 1, "b": {"nested": [1]}}
    # Materializing detaches the export: later writes are free and unseen.
    store.put("a", 99)
    assert export.materialize() == {"a": 1, "b": {"nested": [1]}}
    assert store.pending_export_count == 0


def test_cow_export_only_copies_dirty_keys():
    store = KeyValueStore({f"k{i}": i for i in range(100)})
    export = store.cow_export()
    store.put("k0", -1)
    store.put("k1", -1)
    store.put("k0", -2)  # second write to the same key captures nothing new
    assert export.dirty_key_count == 2


def test_cow_export_unaffected_by_journal_rollback():
    store = KeyValueStore({"balance": 10})
    export = store.cow_export()
    store.begin()
    store.put("balance", 5)
    store.rollback()
    store.put("balance", 7)
    assert export.materialize() == {"balance": 10}


def test_multiple_cow_exports_see_their_own_instant():
    store = KeyValueStore({"x": 1})
    first = store.cow_export()
    store.put("x", 2)
    second = store.cow_export()
    store.put("x", 3)
    assert first.materialize() == {"x": 1}
    assert second.materialize() == {"x": 2}
    assert store.get("x") == 3


def test_cow_export_survives_restore_state():
    store = KeyValueStore({"a": 1, "b": 2})
    export = store.cow_export()
    store.restore_state({"a": 10, "c": 30})
    assert export.materialize() == {"a": 1, "b": 2}


def test_released_export_cannot_materialize_and_stops_tracking():
    store = KeyValueStore({"a": 1})
    export = store.cow_export()
    export.release()
    assert store.pending_export_count == 0
    store.put("a", 2)
    with pytest.raises(StoreError):
        export.materialize()


def test_materialized_export_is_a_deep_copy():
    store = KeyValueStore({"a": {"nested": [1]}})
    export = store.cow_export()
    frozen = export.materialize()
    frozen["a"]["nested"].append(2)
    assert store.get("a") == {"nested": [1]}


# ----------------------------------------------------------------------
# The fingerprint is the XOR of what was folded in, whatever a contract did
# to a value it had read (the store remembers each entry's digest).
# ----------------------------------------------------------------------
def test_fingerprint_survives_in_place_mutation_before_put():
    store = KeyValueStore()
    store.put("k", [1])
    value = store.get("k")
    value.append(2)  # the stored object itself
    store.put("k", value)
    assert store.fingerprint() == store.recompute_fingerprint()
    assert store.fingerprint() == KeyValueStore({"k": [1, 2]}).fingerprint()


def test_fingerprint_survives_in_place_mutation_inside_a_rolled_back_journal():
    store = KeyValueStore({"k": {"n": 1}, "other": 7})
    store.begin()
    value = store.get("k")
    value["n"] = 2
    store.put("k", value)
    store.put("other", 8)
    store.rollback()
    assert store.get("other") == 7
    assert store.fingerprint() == store.recompute_fingerprint()


def test_fingerprint_survives_delete_after_in_place_mutation():
    store = KeyValueStore({"k": [1], "kept": 1})
    store.get("k").append(2)
    store.delete("k")
    assert store.fingerprint() == store.recompute_fingerprint()
    assert store.fingerprint() == KeyValueStore({"kept": 1}).fingerprint()


def test_restore_state_rebuilds_the_remembered_digests():
    store = KeyValueStore({"gone": [0], "k": [9]})
    store.restore_state({"k": [1], "fresh": {"a": 1}})
    assert store.fingerprint() == store.recompute_fingerprint()
    # Rewrites and deletes after the restore fold out the restored entries.
    value = store.get("k")
    value.append(2)
    store.put("k", value)
    store.delete("fresh")
    store.delete("gone")  # absent since the restore: nothing to fold out
    assert store.fingerprint() == store.recompute_fingerprint()
    assert store.fingerprint() == KeyValueStore({"k": [1, 2]}).fingerprint()


def test_refused_write_leaves_the_fingerprint_coherent():
    store = KeyValueStore({"k": 1})
    with pytest.raises(TypeError):
        store.put("k", object())  # not a JSON-like value: no digest, no write
    assert store.get("k") == 1
    assert store.fingerprint() == store.recompute_fingerprint()
