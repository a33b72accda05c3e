"""Key-value data model with journaling and incremental fingerprinting.

Every bContract must implement *data fingerprinting* and *data cloning*
(Section III-A2).  Contracts are free to bring their own data model (the
paper mentions binary files and SQLite); this module provides the data
model used by all bundled bContracts:

* a string-keyed store of JSON-like values;
* an **incremental fingerprint** — the XOR of per-entry digests — so the
  store's fingerprint is updated in O(1) per write instead of re-hashing
  the whole state after every transaction (crucial for the 20,000-tx
  stress experiments, and verified against a full recomputation in the
  property-based tests).  The store **remembers the digest it folded in**
  for every entry: a rewrite or delete folds *that* out, so a write costs
  one digest (of the new value) and the fingerprint stays the XOR of what
  was folded in even when a contract mutated a value it had read in place
  before writing it back;
* a **mutation journal** so a failed bContract invocation can be rolled
  back without copying the whole state — the journal also records the
  *access set* of the transaction (keys read, keys written, keys touched
  by commutative increments), which is what the conflict-aware execution
  lanes of :mod:`repro.core.lanes` compare against the declared access
  plans;
* **cloning** — an O(1) capture of the current fingerprint plus entry
  count, which is what the snapshot engine asks contracts for at the end
  of a report cycle;
* **copy-on-write exports** — an O(1) logical freeze of the contents at
  snapshot time: only keys written afterwards are copied, and the full
  frozen dict is materialized lazily when an auditor actually downloads
  the snapshot.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from ..crypto.fingerprint import canonical_bytes
from ..crypto.hashing import fast_hash

_MISSING = object()


class StoreError(Exception):
    """Raised on invalid store operations."""


def access_sets_conflict(
    a_reads: frozenset,
    a_writes: frozenset,
    a_deltas: frozenset,
    b_reads: frozenset,
    b_writes: frozenset,
    b_deltas: frozenset,
) -> bool:
    """The one definition of access-set conflict, shared by every layer.

    A write conflicts with any other access to the same key; a delta
    conflicts with reads and writes but not with other deltas; reads never
    conflict with reads.  Both :class:`AccessSet` (contract-local keys) and
    the lane engine's contract-qualified footprints delegate here so the
    semantics cannot drift apart.
    """
    if a_writes & (b_reads | b_writes | b_deltas):
        return True
    if b_writes & (a_reads | a_deltas):
        return True
    if a_deltas & b_reads or b_deltas & a_reads:
        return True
    return False


@dataclass(frozen=True)
class AccessSet:
    """The keys one invocation touched, split by how it touched them.

    * ``reads`` — keys whose values the invocation observed;
    * ``writes`` — keys it overwrote or deleted (order-sensitive);
    * ``deltas`` — keys it changed through :meth:`KeyValueStore.increment`
      only.  Increments commute, so two transactions whose *only* shared
      keys are mutual deltas produce the same final state in either order.

    Conflict semantics (used by the lane scheduler): see
    :func:`access_sets_conflict`.
    """

    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    deltas: frozenset[str] = frozenset()

    def conflicts_with(self, other: "AccessSet") -> bool:
        """Whether running self and ``other`` concurrently could reorder effects."""
        return access_sets_conflict(
            self.reads, self.writes, self.deltas,
            other.reads, other.writes, other.deltas,
        )

    @property
    def mutations(self) -> frozenset[str]:
        """Every key this access set may change (writes and deltas)."""
        return self.writes | self.deltas

    def covers_mutations_of(self, observed: "AccessSet") -> bool:
        """Whether a declared plan accounts for every observed mutation."""
        return observed.mutations <= self.mutations


class MutationJournal:
    """Undo log plus access-set recording for one open store transaction.

    Formalizes what used to be an anonymous list of ``(key, old_value)``
    pairs: the undo entries still drive :meth:`KeyValueStore.rollback`,
    and alongside them the journal accumulates the transaction's observed
    read/write/delta key sets for conflict analysis.
    """

    __slots__ = ("undo", "reads", "writes", "deltas")

    def __init__(self) -> None:
        self.undo: list[tuple[str, Any]] = []
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.deltas: set[str] = set()

    def record(self, key: str, old: Any, access: str) -> None:
        """Add one undo entry, classifying the access as 'write' or 'delta'."""
        self.undo.append((key, old))
        if access == "delta":
            self.deltas.add(key)
        else:
            self.writes.add(key)

    def access_set(self) -> AccessSet:
        """Freeze the observed access sets (keys later rolled back included)."""
        return AccessSet(
            reads=frozenset(self.reads),
            writes=frozenset(self.writes),
            deltas=frozenset(self.deltas),
        )


@dataclass(frozen=True)
class StoreSnapshot:
    """An immutable capture of a store's fingerprint at a point in time."""

    fingerprint: bytes
    entry_count: int

    def fingerprint_hex(self) -> str:
        """0x-prefixed fingerprint."""
        return "0x" + self.fingerprint.hex()


class StateExport:
    """A copy-on-write export of a :class:`KeyValueStore` at one instant.

    Creating the export is O(1): no data is copied.  The store then captures
    the *old* value of every key written after the export was taken (first
    write wins, so the overlay holds exactly the export-time values of the
    dirty keys).  :meth:`materialize` produces the frozen dict an auditor
    downloads — current data patched back with the overlay — and detaches
    the export from the store so later writes cost nothing.

    This replaces the eager per-report-cycle ``copy.deepcopy`` of every
    contract's full state: cycles whose snapshots nobody downloads never pay
    for a copy beyond their dirty keys.
    """

    def __init__(self, store: "KeyValueStore") -> None:
        self._store: Optional[KeyValueStore] = store
        self._overlay: dict[str, Any] = {}
        self._frozen: Optional[dict[str, Any]] = None

    def _capture(self, key: str, old: Any) -> None:
        """Record the export-time value of ``key`` before its first rewrite."""
        if key not in self._overlay:
            self._overlay[key] = old if old is _MISSING else copy.deepcopy(old)

    @property
    def materialized(self) -> bool:
        """Whether the frozen dict has been built already."""
        return self._frozen is not None

    def materialize(self) -> dict[str, Any]:
        """Build (once) and return the frozen export dict."""
        if self._frozen is not None:
            return self._frozen
        store = self._store
        if store is None:
            raise StoreError("state export was released before materialization")
        data = {key: copy.deepcopy(value) for key, value in store._data.items()}
        for key, old in self._overlay.items():
            if old is _MISSING:
                data.pop(key, None)
            else:
                data[key] = old
        self._frozen = data
        self._overlay = {}
        store._detach_export(self)
        self._store = None
        return self._frozen

    def release(self) -> None:
        """Detach without materializing (the snapshot was pruned unread)."""
        if self._store is not None:
            self._store._detach_export(self)
            self._store = None
        self._overlay = {}


def _entry_digest(key: str, value: Any) -> int:
    """Digest of one (key, value) entry, as the integer the fingerprint XORs."""
    return int.from_bytes(fast_hash(key.encode() + b"\x00" + canonical_bytes(value)), "big")


#: Fingerprint of the empty store.
EMPTY_FINGERPRINT = fast_hash(b"blockumulus-empty-store")
_EMPTY_FOLD = int.from_bytes(EMPTY_FINGERPRINT, "big")


class KeyValueStore:
    """A journaled, incrementally fingerprinted key-value store."""

    def __init__(self, initial: Optional[dict[str, Any]] = None) -> None:
        self._data: dict[str, Any] = {}
        #: key -> the entry digest that was folded into the fingerprint when
        #: the key was last written (same keys as ``_data``, always).
        self._digests: dict[str, int] = {}
        #: XOR of ``_EMPTY_FOLD`` and every remembered digest; ``_fingerprint``
        #: is this number rendered to 32 bytes, once per write.
        self._fold = _EMPTY_FOLD
        self._fingerprint = EMPTY_FINGERPRINT
        self._journal: Optional[MutationJournal] = None
        #: Depth of nested read-only (view) guards; writes raise while > 0.
        self._view_depth = 0
        self._view_reads: set[str] = set()
        #: Pending copy-on-write exports that still track this store.
        self._exports: list[StateExport] = []
        for key, value in (initial or {}).items():
            self.put(key, value)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _record_read(self, key: str) -> None:
        if self._journal is not None:
            self._journal.reads.add(key)
        if self._view_depth:
            self._view_reads.add(key)

    def get(self, key: str, default: Any = None) -> Any:
        """Read the value at ``key`` (or ``default``)."""
        self._record_read(key)
        return self._data.get(key, default)

    def require(self, key: str) -> Any:
        """Read the value at ``key``, raising if absent."""
        self._record_read(key)
        if key not in self._data:
            raise StoreError(f"missing key {key!r}")
        return self._data[key]

    def contains(self, key: str) -> bool:
        """Whether ``key`` is present."""
        self._record_read(key)
        return key in self._data

    def keys(self, prefix: str = "") -> list[str]:
        """All keys (optionally restricted to a prefix), sorted."""
        found = sorted(key for key in self._data if key.startswith(prefix))
        for key in found:
            self._record_read(key)
        return found

    def items(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        """Iterate (key, value) pairs sorted by key."""
        for key in self.keys(prefix):
            yield key, self._data[key]

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _apply_write(self, key: str, value: Any, access: str) -> None:
        """Shared insert/replace path for :meth:`put` and :meth:`increment`."""
        if not isinstance(key, str):
            raise StoreError("store keys must be strings")
        if self._view_depth:
            raise StoreError(f"store is read-only during a view (write to {key!r} rejected)")
        old = self._data.get(key, _MISSING)
        if self._exports:
            self._notify_exports(key, old)
        digest = _entry_digest(key, value)
        # Fold out what was folded in for this key — never a digest of
        # ``old`` as it is now, which its reader may have mutated in place.
        self._fold ^= digest if old is _MISSING else digest ^ self._digests[key]
        self._fingerprint = self._fold.to_bytes(32, "big")
        self._digests[key] = digest
        if self._journal is not None:
            self._journal.record(key, old, access)
        self._data[key] = value

    def put(self, key: str, value: Any) -> None:
        """Insert or replace the value at ``key``."""
        self._apply_write(key, value, "write")

    def delete(self, key: str) -> None:
        """Remove ``key`` if present."""
        if self._view_depth:
            raise StoreError(f"store is read-only during a view (delete of {key!r} rejected)")
        old = self._data.get(key, _MISSING)
        if old is _MISSING:
            return
        self._notify_exports(key, old)
        self._fold ^= self._digests.pop(key)
        self._fingerprint = self._fold.to_bytes(32, "big")
        if self._journal is not None:
            self._journal.record(key, old, "write")
        del self._data[key]

    def increment(self, key: str, amount: int | float = 1) -> Any:
        """Add ``amount`` to a numeric value (treating absent as zero).

        Increments are journaled as commutative *deltas* rather than plain
        writes: two transactions whose only shared key is incremented by
        both leave the same final state in either execution order, so the
        lane scheduler may run them concurrently.  Note the *returned*
        running value is order-dependent — contracts that expose it in a
        transaction result must declare the key as a write in their access
        plan.
        """
        current = self._data.get(key, 0)
        if isinstance(current, bool) or not isinstance(current, (int, float)):
            raise StoreError(f"cannot increment non-numeric value at {key!r}")
        value = current + amount
        self._apply_write(key, value, "delta")
        return value

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start recording accesses so writes can be rolled back."""
        if self._journal is not None:
            raise StoreError("a journal transaction is already open")
        self._journal = MutationJournal()

    def commit(self) -> MutationJournal:
        """Close the journal, keeping all writes; returns the journal."""
        if self._journal is None:
            raise StoreError("no journal transaction is open")
        journal, self._journal = self._journal, None
        return journal

    def rollback(self) -> MutationJournal:
        """Undo every write made since :meth:`begin`; returns the journal.

        The returned journal still carries the transaction's observed
        access sets — a rejected transaction's footprint is as relevant to
        conflict statistics as a committed one's.
        """
        if self._journal is None:
            raise StoreError("no journal transaction is open")
        journal, self._journal = self._journal, None
        for key, old in reversed(journal.undo):
            if old is _MISSING:
                self.delete(key)
            else:
                self.put(key, old)
        return journal

    # ------------------------------------------------------------------
    # Read-only view guard
    # ------------------------------------------------------------------
    def begin_view(self) -> None:
        """Enter a read-only section: writes raise until :meth:`end_view`.

        View guards nest (a view may call another view); read recording
        accumulates until the outermost guard ends.
        """
        if self._view_depth == 0:
            self._view_reads = set()
        self._view_depth += 1

    def end_view(self) -> frozenset[str]:
        """Leave the read-only section, returning the keys read inside it."""
        if self._view_depth == 0:
            raise StoreError("no view guard is open")
        self._view_depth -= 1
        reads = frozenset(self._view_reads)
        if self._view_depth == 0:
            self._view_reads = set()
        return reads

    @property
    def in_view(self) -> bool:
        """Whether a read-only view guard is currently active."""
        return self._view_depth > 0

    @property
    def in_transaction(self) -> bool:
        """Whether a journal transaction is currently open."""
        return self._journal is not None

    # ------------------------------------------------------------------
    # Fingerprinting and cloning
    # ------------------------------------------------------------------
    def fingerprint(self) -> bytes:
        """The incremental fingerprint of the current contents."""
        return self._fingerprint

    def fingerprint_hex(self) -> str:
        """0x-prefixed incremental fingerprint."""
        return "0x" + self._fingerprint.hex()

    def recompute_fingerprint(self) -> bytes:
        """Recompute the fingerprint from scratch (verification path).

        Every stored value is encoded and hashed again; the remembered
        digests are not consulted, so this also verifies them.
        """
        fold = _EMPTY_FOLD
        # lint: disable=DET003 — XOR accumulation is commutative; order-independent by design
        for key, value in self._data.items():
            fold ^= _entry_digest(key, value)
        return fold.to_bytes(32, "big")

    def clone_snapshot(self) -> StoreSnapshot:
        """Capture the current fingerprint (the 'data cloning' interface)."""
        return StoreSnapshot(fingerprint=self._fingerprint, entry_count=len(self._data))

    # ------------------------------------------------------------------
    # Copy-on-write exports
    # ------------------------------------------------------------------
    def cow_export(self) -> StateExport:
        """Take an O(1) copy-on-write export of the current contents."""
        export = StateExport(self)
        self._exports.append(export)
        return export

    def _notify_exports(self, key: str, old: Any) -> None:
        """Let pending exports capture ``key``'s value before it changes."""
        for export in self._exports:
            export._capture(key, old)

    def _detach_export(self, export: StateExport) -> None:
        """Stop tracking ``export`` (materialized or released)."""
        try:
            self._exports.remove(export)
        except ValueError:
            pass

    @property
    def pending_export_count(self) -> int:
        """Copy-on-write exports still tracking this store."""
        return len(self._exports)

    # ------------------------------------------------------------------
    # Export / restore (auditor replay support)
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """A deep-enough copy of the contents for replay and persistence."""
        return copy.deepcopy(self._data)

    def restore_state(self, data: dict[str, Any]) -> None:
        """Replace the contents with ``data`` (recomputing the fingerprint)."""
        if self._journal is not None:
            raise StoreError("cannot restore state inside an open transaction")
        # Pending exports must see the pre-restore values of every key that
        # is about to vanish; keys surviving into ``data`` are captured again
        # harmlessly (first capture wins).
        for key, value in self._data.items():
            self._notify_exports(key, value)
        self._data = {}
        self._digests = {}
        self._fold = _EMPTY_FOLD
        self._fingerprint = EMPTY_FINGERPRINT
        for key, value in data.items():
            self.put(key, value)
