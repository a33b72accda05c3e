"""Data snapshots and the snapshot engine.

At every report-cycle boundary a cell asks each deployed bContract to clone
and fingerprint its data, combines the per-contract fingerprints into the
*data snapshot fingerprint*, and retains the snapshot (including a full
state export) so auditors can download it during the next main stage
(Sections III-A2, III-D2).  The paper's storage analysis assumes three
retained snapshots: the one being built plus two kept for auditing.

State exports are **copy-on-write**: taking a snapshot is O(1) per
contract, only keys written after the snapshot get their old values
preserved, and the frozen export dict is materialized lazily the first
time somebody (an auditor, the wire encoder) actually reads it.  Report
cycles whose snapshots are pruned unread never pay for a full state copy.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from ..contracts.registry import ContractRegistry
from ..contracts.state_store import StateExport
from ..crypto.fingerprint import snapshot_fingerprint


class SnapshotError(ValueError):
    """Raised for invalid snapshot queries and malformed snapshot wire forms."""


class LazySnapshotExport(Mapping):
    """Per-contract copy-on-write exports behind a read-only mapping.

    Reads behave exactly like the eager ``{contract: state}`` dict the
    engine used to build at snapshot time, but the underlying data is only
    copied when first accessed.  Once materialized the result is cached and
    immutable, so repeated auditor downloads serve the same frozen dicts.
    """

    def __init__(self, exports: dict[str, StateExport]) -> None:
        self._exports = exports
        self._frozen: Optional[dict[str, dict[str, Any]]] = None

    def _materialize(self) -> dict[str, dict[str, Any]]:
        if self._frozen is None:
            self._frozen = {name: export.materialize() for name, export in self._exports.items()}
        return self._frozen

    @property
    def materialized(self) -> bool:
        """Whether the frozen per-contract dicts have been built."""
        return self._frozen is not None

    def release(self) -> None:
        """Drop the copy-on-write handles without materializing."""
        if self._frozen is None:
            for export in self._exports.values():
                export.release()

    def __getitem__(self, name: str) -> dict[str, Any]:
        return self._materialize()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._exports)

    def __len__(self) -> int:
        return len(self._exports)

    def __contains__(self, name: object) -> bool:
        return name in self._exports

    def to_dict(self) -> dict[str, dict[str, Any]]:
        """The materialized ``{contract: state}`` export."""
        return self._materialize()


#: The exact JSON types of a snapshot's wire fields: nothing is coerced.
_WIRE_TYPES: dict[str, tuple[type, ...]] = {
    "cycle": (int,),
    "taken_at": (int, float),
    "cell_id": (str,),
    "fingerprint": (str,),
    "contract_fingerprints": (dict,),
    "excluded_contracts": (list,),
    "contract_types": (dict,),
    "state_export": (dict,),
    "first_sequence": (int,),
    "last_sequence": (int,),
}


@dataclass(frozen=True)
class DataSnapshot:
    """An immutable snapshot of a cell's bContract data for one cycle."""

    cycle: int
    taken_at: float
    cell_id: str
    #: Per-contract fingerprints included in the snapshot.
    contract_fingerprints: dict[str, bytes]
    #: Contracts excluded from this snapshot (mismatch/divergence).
    excluded_contracts: tuple[str, ...]
    #: The combined data snapshot fingerprint anchored on Ethereum.
    fingerprint: bytes
    #: Per-contract type tags (``BContract.TYPE``), so an auditor can
    #: reconstruct *any* instance for replay — per-shard application
    #: instances (``fastmoney@s1``) and renamed deployments included,
    #: not just contracts that happen to use their default names.
    contract_types: dict[str, str] = field(default_factory=dict)
    #: Full state export per contract (what auditors download).  Either a
    #: plain dict or a :class:`LazySnapshotExport` that materializes on read.
    state_export: Mapping[str, dict[str, Any]] = field(default_factory=dict, repr=False)
    #: Sequence numbers of ledger entries covered by this snapshot.
    first_sequence: int = 0
    last_sequence: int = -1

    def fingerprint_hex(self) -> str:
        """0x-prefixed snapshot fingerprint."""
        return "0x" + self.fingerprint.hex()

    def to_wire(self, include_state: bool = True) -> dict[str, Any]:
        """JSON-serializable form (auditor download)."""
        payload: dict[str, Any] = {
            "cycle": self.cycle,
            "taken_at": self.taken_at,
            "cell_id": self.cell_id,
            "fingerprint": self.fingerprint_hex(),
            "contract_fingerprints": {
                name: "0x" + digest.hex()
                for name, digest in sorted(self.contract_fingerprints.items())
            },
            "excluded_contracts": list(self.excluded_contracts),
            "contract_types": dict(sorted(self.contract_types.items())),
            "first_sequence": self.first_sequence,
            "last_sequence": self.last_sequence,
        }
        if include_state:
            payload["state_export"] = self.materialized_state()
        return payload

    @classmethod
    def from_wire(cls, raw: dict[str, Any], cell_id: Optional[str] = None) -> "DataSnapshot":
        """Rebuild a snapshot from its wire form (cell resync).

        ``cell_id`` overrides the recorded owner so a recovering cell can
        adopt a donor's snapshot under its own identity.
        """
        try:
            for key in raw:
                kinds = _WIRE_TYPES.get(key)
                if kinds is not None and type(raw[key]) not in kinds:
                    raise TypeError(f"{key} must be {' or '.join(k.__name__ for k in kinds)}")
            types, states = raw.get("contract_types", {}), raw.get("state_export", {})
            names = [*raw.get("excluded_contracts", []), *(types[name] for name in types)]
            if not all(type(name) is str for name in names):
                raise TypeError("contract names and type tags must be strings")
            if not all(type(states[name]) is dict for name in states):
                raise TypeError("a contract's exported state must be an object")
            return cls(
                cycle=raw["cycle"],
                taken_at=raw["taken_at"],
                cell_id=cell_id if cell_id is not None else raw["cell_id"],
                contract_fingerprints={
                    name: bytes.fromhex(value[2:])
                    for name, value in sorted(raw["contract_fingerprints"].items())
                },
                excluded_contracts=tuple(raw.get("excluded_contracts", [])),
                contract_types=dict(raw.get("contract_types", {})),
                fingerprint=bytes.fromhex(raw["fingerprint"][2:]),
                state_export=dict(raw.get("state_export", {})),
                first_sequence=raw.get("first_sequence", 0),
                last_sequence=raw.get("last_sequence", -1),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise SnapshotError(f"malformed snapshot wire form: {exc}") from exc

    def materialized_state(self) -> dict[str, dict[str, Any]]:
        """The state export as a plain dict (forces materialization)."""
        if isinstance(self.state_export, LazySnapshotExport):
            return self.state_export.to_dict()
        return dict(self.state_export)

    def release_state(self) -> None:
        """Drop an unmaterialized lazy export (called when pruned unread)."""
        if isinstance(self.state_export, LazySnapshotExport):
            self.state_export.release()


class SnapshotEngine:
    """Builds and retains data snapshots for one cell."""

    def __init__(self, cell_id: str, registry: ContractRegistry, retain: int = 3) -> None:
        if retain < 2:
            raise SnapshotError("the engine must retain at least two snapshots")
        self.cell_id = cell_id
        self.registry = registry
        self.retain = retain
        self._snapshots: dict[int, DataSnapshot] = {}
        self._latest_cycle: Optional[int] = None
        #: Canonical-JSON size cache: snapshots are immutable once taken, so
        #: each is serialized at most once for the storage accounting.
        self._wire_sizes: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Snapshot creation
    # ------------------------------------------------------------------
    def take_snapshot(
        self,
        cycle: int,
        timestamp: float,
        first_sequence: int,
        last_sequence: int,
        include_state: bool = True,
    ) -> DataSnapshot:
        """Clone and fingerprint every non-excluded contract."""
        if self._latest_cycle is not None and cycle <= self._latest_cycle:
            raise SnapshotError(
                f"snapshot for cycle {cycle} taken out of order (latest is {self._latest_cycle})"
            )
        fingerprints: dict[str, bytes] = {}
        types: dict[str, str] = {}
        for contract in self.registry:
            if self.registry.is_excluded(contract.name):
                continue
            clone = contract.clone_snapshot()
            fingerprints[contract.name] = clone.fingerprint
            types[contract.name] = contract.TYPE
        combined = snapshot_fingerprint(fingerprints)
        snapshot = DataSnapshot(
            cycle=cycle,
            taken_at=timestamp,
            cell_id=self.cell_id,
            contract_fingerprints=fingerprints,
            excluded_contracts=tuple(self.registry.excluded()),
            contract_types=types,
            fingerprint=combined,
            state_export=(
                LazySnapshotExport(self.registry.export_all_lazy()) if include_state else {}
            ),
            first_sequence=first_sequence,
            last_sequence=last_sequence,
        )
        self._snapshots[cycle] = snapshot
        self._latest_cycle = cycle
        self._prune()
        return snapshot

    def adopt(self, snapshot: DataSnapshot) -> DataSnapshot:
        """Install a donor's snapshot as this cell's own (crash recovery).

        A cell that was down for one or more report cycles cannot take the
        snapshots it missed; adopting the donor's latest snapshot re-anchors
        the engine's cycle sequence so (a) ``take_snapshot`` succeeds at the
        next boundary and (b) auditors running the succession audit on the
        recovered cell find the predecessor snapshot they need.
        """
        if self._latest_cycle is not None and snapshot.cycle <= self._latest_cycle:
            raise SnapshotError(
                f"cannot adopt snapshot for cycle {snapshot.cycle}: "
                f"local engine is already at cycle {self._latest_cycle}"
            )
        self._snapshots[snapshot.cycle] = snapshot
        self._latest_cycle = snapshot.cycle
        self._prune()
        return snapshot

    def _prune(self) -> None:
        while len(self._snapshots) > self.retain:
            oldest = min(self._snapshots)
            self._snapshots[oldest].release_state()
            del self._snapshots[oldest]
            self._wire_sizes.pop(oldest, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def latest_cycle(self) -> Optional[int]:
        """Cycle number of the most recent snapshot (None before the first)."""
        return self._latest_cycle

    def latest(self) -> DataSnapshot:
        """The most recent snapshot."""
        if self._latest_cycle is None:
            raise SnapshotError("no snapshot has been taken yet")
        return self._snapshots[self._latest_cycle]

    def get(self, cycle: int) -> DataSnapshot:
        """Snapshot of a specific cycle (if still retained)."""
        try:
            return self._snapshots[cycle]
        except KeyError:
            raise SnapshotError(f"no retained snapshot for cycle {cycle}") from None

    def has(self, cycle: int) -> bool:
        """Whether a snapshot for ``cycle`` is retained."""
        return cycle in self._snapshots

    def retained_cycles(self) -> list[int]:
        """Cycles of all retained snapshots, oldest first."""
        return sorted(self._snapshots)

    def storage_bytes(self) -> int:
        """Approximate bytes devoted to retained snapshots (Section IV-C).

        Measuring the serialized size necessarily materializes any
        still-lazy state exports, so call this only when the storage
        accounting is actually wanted.  Snapshots are immutable once taken,
        so each retained snapshot is serialized at most once; repeated
        calls reuse the cached sizes instead of re-encoding every
        snapshot's full state.
        """
        from ..encoding import canonical_json

        total = 0
        for cycle, snapshot in self._snapshots.items():
            size = self._wire_sizes.get(cycle)
            if size is None:
                size = len(canonical_json.dump_bytes(snapshot.to_wire(include_state=True)))
                self._wire_sizes[cycle] = size
            total += size
        return total
