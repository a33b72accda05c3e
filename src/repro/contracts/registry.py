"""Per-cell registry of deployed bContracts.

Each cell holds one instance of every deployed bContract (system and
community).  The registry tracks them by name, produces the per-contract
fingerprint map that the snapshot engine combines into the data snapshot
fingerprint, and supports exclusion of contracts whose fingerprints
diverged across cells (Section III-A3).
"""

from __future__ import annotations

from typing import Any, Iterator

from .context import BContractError
from .interface import BContract


class RegistryError(Exception):
    """Raised for duplicate or missing contract registrations."""


class ContractRegistry:
    """Named collection of the bContracts deployed on one cell."""

    def __init__(self) -> None:
        self._contracts: dict[str, BContract] = {}
        self._excluded: set[str] = set()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, contract: BContract) -> BContract:
        """Add a freshly deployed contract."""
        if contract.name in self._contracts:
            raise RegistryError(f"a contract named {contract.name!r} is already deployed")
        self._contracts[contract.name] = contract
        return contract

    def remove(self, name: str) -> None:
        """Remove a community contract (system contracts cannot be removed)."""
        contract = self.get(name)
        if contract.IS_SYSTEM:
            raise RegistryError(f"system contract {name!r} cannot be removed")
        del self._contracts[name]
        self._excluded.discard(name)

    def get(self, name: str) -> BContract:
        """Fetch a deployed contract by name."""
        try:
            return self._contracts[name]
        except KeyError:
            raise BContractError(f"no bContract named {name!r} is deployed") from None

    def contains(self, name: str) -> bool:
        """Whether a contract with this name is deployed."""
        return name in self._contracts

    def names(self) -> list[str]:
        """All deployed contract names, sorted."""
        return sorted(self._contracts)

    def __iter__(self) -> Iterator[BContract]:
        for name in self.names():
            yield self._contracts[name]

    def __len__(self) -> int:
        return len(self._contracts)

    # ------------------------------------------------------------------
    # Exclusion management
    # ------------------------------------------------------------------
    def exclude(self, name: str) -> None:
        """Temporarily exclude a contract from snapshots."""
        if name not in self._contracts:
            raise RegistryError(f"cannot exclude unknown contract {name!r}")
        self._excluded.add(name)

    def include(self, name: str) -> None:
        """Re-admit a previously excluded contract."""
        self._excluded.discard(name)

    def excluded(self) -> list[str]:
        """Names of currently excluded contracts."""
        return sorted(self._excluded)

    def is_excluded(self, name: str) -> bool:
        """Whether the contract is currently excluded from snapshots."""
        return name in self._excluded

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def fingerprints(self, include_excluded: bool = False) -> dict[str, bytes]:
        """Per-contract fingerprints for the snapshot engine."""
        return {
            name: contract.fingerprint()
            for name, contract in sorted(self._contracts.items())
            if include_excluded or name not in self._excluded
        }

    def export_all(self) -> dict[str, dict[str, Any]]:
        """Full state export of every contract (auditor snapshot download)."""
        return {name: contract.export_state() for name, contract in self._contracts.items()}

    def export_all_lazy(self) -> dict[str, Any]:
        """O(1) copy-on-write export handles for every contract.

        The snapshot engine stores these instead of eager deep copies; each
        handle materializes the contract's frozen state only if an auditor
        actually downloads the snapshot.
        """
        return {name: contract.export_state_lazy() for name, contract in self._contracts.items()}

    def describe(self) -> list[dict[str, Any]]:
        """Summaries of all deployed contracts."""
        return [contract.describe() for contract in self]
