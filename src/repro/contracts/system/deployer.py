"""Community bContract deployer — a system bContract.

The deployer (Section III-C5) is the interface through which clients add
their own community bContracts to a Blockumulus deployment.  A deployment
transaction carries the contract's source code, a unique name, and optional
parameters; every cell loads the source through the restricted interpreter
and registers the resulting contract so that subsequent transactions can
invoke it.  The deployer records ownership so the owner (and only the
owner) can later destroy the contract if it was deployed as destroyable.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ...crypto.hashing import fast_hash
from ..context import BContractError, InvocationContext
from ..interface import BContract, bcontract_method, bcontract_view
from ..interpreter import InterpreterError, instantiate_contract

#: Names reserved for system contracts.
RESERVED_PREFIXES = ("system.",)


class CommunityDeployer(BContract):
    """The pre-deployed community-bContract deployer."""

    TYPE = "system/deployer"
    IS_SYSTEM = True
    DEFAULT_NAME = "system.deployer"

    # The cell-side registry hooks, attached by :meth:`bind`: a successful
    # deployment lands in the cell's contract registry.  They are not part
    # of contract state and therefore do not affect fingerprints.
    _register_callback: Optional[Callable[[BContract], None]] = None
    _remove_callback: Optional[Callable[[str], None]] = None

    def bind(
        self,
        register_callback: Callable[[BContract], None],
        remove_callback: Callable[[str], None],
    ) -> None:
        """Attach the cell-side registry hooks (done by the cell at boot)."""
        self._register_callback = register_callback
        self._remove_callback = remove_callback

    @staticmethod
    def _record_key(name: str) -> str:
        return f"deployed/{name}"

    # ------------------------------------------------------------------
    # Transaction methods
    # ------------------------------------------------------------------
    @bcontract_method
    def deploy(
        self,
        ctx: InvocationContext,
        name: str,
        source: str,
        params: dict[str, Any] | None = None,
        destroyable: bool = True,
    ) -> dict[str, Any]:
        """Deploy a community bContract from Python source code."""
        if not isinstance(name, str) or not name or "/" in name:
            raise BContractError("deploy: contract name must be a non-empty string without '/'")
        if any(name.startswith(prefix) for prefix in RESERVED_PREFIXES):
            raise BContractError(f"deploy: names starting with {RESERVED_PREFIXES} are reserved")
        if self.store.contains(self._record_key(name)):
            raise BContractError(f"deploy: a contract named {name!r} already exists")
        try:
            contract = instantiate_contract(source, name=name, owner=ctx.sender, params=params)
        except InterpreterError as exc:
            raise BContractError(f"deploy: {exc}") from exc
        if self._register_callback is None:
            raise BContractError("deploy: deployer is not bound to a cell registry")
        self._register_callback(contract)
        source_hash = "0x" + fast_hash(source.encode()).hex()
        self.store.put(
            self._record_key(name),
            {
                "owner": ctx.sender.hex(),
                "source_hash": source_hash,
                "destroyable": bool(destroyable),
                "deployed_at": ctx.timestamp,
                "params": dict(params or {}),
            },
        )
        self.store.increment("stats/deployments")
        return {"name": name, "source_hash": source_hash, "owner": ctx.sender.hex()}

    @bcontract_method
    def destroy(self, ctx: InvocationContext, name: str) -> dict[str, Any]:
        """Destroy a community contract (owner only, if deployed destroyable)."""
        record = self.store.get(self._record_key(name))
        if record is None:
            raise BContractError(f"destroy: no deployed contract named {name!r}")
        if record["owner"] != ctx.sender.hex():
            raise BContractError("destroy: only the contract owner may destroy it")
        if not record.get("destroyable", False):
            raise BContractError(f"destroy: contract {name!r} was deployed as indestructible")
        if self._remove_callback is None:
            raise BContractError("destroy: deployer is not bound to a cell registry")
        self._remove_callback(name)
        self.store.delete(self._record_key(name))
        self.store.increment("stats/destroyed")
        return {"name": name, "destroyed": True}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @bcontract_view
    def deployed(self) -> list[str]:
        """Names of all community contracts deployed through this deployer."""
        prefix = "deployed/"
        return [key[len(prefix):] for key in self.store.keys(prefix)]

    @bcontract_view
    def record(self, name: str) -> dict[str, Any]:
        """Deployment record (owner, source hash, parameters) of a contract."""
        record = self.store.get(self._record_key(name))
        if record is None:
            raise BContractError(f"no deployed contract named {name!r}")
        return dict(record)
