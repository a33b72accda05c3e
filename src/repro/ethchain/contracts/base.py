"""Base class for native contracts on the simulated Ethereum chain.

The real Blockumulus deployment anchors snapshots in a Solidity contract.
Re-implementing the EVM is out of scope for the reproduction (and would not
change any measured quantity), so contracts on the simulated chain are
Python classes that (a) keep their state in the account's storage dict,
(b) meter gas through :class:`repro.ethchain.gas.GasMeter` using the real
opcode prices for the storage/hashing work they do, and (c) are invoked
through normal signed transactions carrying ABI-like calldata.  The gas a
call reports is therefore comparable with what the Solidity version pays,
which is all Table III needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

from ...crypto.keys import Address
from ..gas import (
    COLD_ACCOUNT_ACCESS_GAS,
    COLD_SLOAD_GAS,
    GasMeter,
    SSTORE_RESET_GAS,
    SSTORE_SET_GAS,
    keccak_gas,
    log_gas,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..account import WorldState


class ContractError(Exception):
    """Raised by contract logic to revert the calling transaction."""


@dataclass
class CallContext:
    """Everything a contract method can see about the calling transaction."""

    sender: Address
    value: int
    block_number: int
    timestamp: float
    gas: GasMeter
    state: "WorldState"
    address: Address
    logs: list[dict[str, Any]]


class NativeContract:
    """A contract implemented natively in Python with EVM-style gas metering.

    Subclasses define public methods decorated with :func:`contract_method`;
    dispatch happens by method name from the transaction calldata.  State
    access must go through :meth:`sload` / :meth:`sstore` so gas is charged
    at the standard rates and every write lands in the account storage that
    the chain state root covers.
    """

    #: Human-readable contract type name (set by subclasses).
    NAME = "native"

    def __init__(self, address: Address) -> None:
        self.address = address
        self._methods: dict[str, Callable[..., Any]] = {}
        for attr_name in dir(self):
            attr = getattr(self, attr_name)
            if callable(attr) and getattr(attr, "_is_contract_method", False):
                self._methods[attr_name] = attr

    # ------------------------------------------------------------------
    # Storage helpers (gas-metered)
    # ------------------------------------------------------------------
    def sload(self, ctx: CallContext, key: str) -> Optional[bytes]:
        """Read a storage slot, charging cold SLOAD gas."""
        ctx.gas.charge(COLD_SLOAD_GAS, f"sload {key}")
        return ctx.state.storage_get(self.address, key)

    def sstore(self, ctx: CallContext, key: str, value: bytes) -> None:
        """Write a storage slot, charging the new-slot or reset price."""
        existing = ctx.state.storage_get(self.address, key)
        ctx.gas.charge(COLD_SLOAD_GAS, f"sstore cold access {key}")
        if existing is None:
            ctx.gas.charge(SSTORE_SET_GAS, f"sstore set {key}")
        else:
            ctx.gas.charge(SSTORE_RESET_GAS, f"sstore reset {key}")
        ctx.state.storage_set(self.address, key, value)

    def charge_keccak(self, ctx: CallContext, data_length: int) -> None:
        """Charge for hashing ``data_length`` bytes inside the contract."""
        ctx.gas.charge(keccak_gas(data_length), "keccak")

    def emit(self, ctx: CallContext, event: str, **fields: Any) -> None:
        """Emit a log entry (charged at LOG prices)."""
        # lint: disable=DET003 — sum() is commutative; only the total reaches gas accounting
        data_length = sum(len(str(value)) for value in fields.values())
        ctx.gas.charge(log_gas(topics=1, data_length=data_length), f"log {event}")
        ctx.logs.append({"event": event, "address": self.address.hex(), **fields})

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def call(self, ctx: CallContext, method: str, args: dict[str, Any]) -> Any:
        """Dispatch ``method`` with ``args``; raises ContractError on revert."""
        ctx.gas.charge(COLD_ACCOUNT_ACCESS_GAS, "call target access")
        handler = self._methods.get(method)
        if handler is None:
            raise ContractError(f"{self.NAME}: unknown method {method!r}")
        return handler(ctx, **args)

    def view(self, state: "WorldState", key: str) -> Optional[bytes]:
        """Gas-free read used by off-chain observers (eth_call analogue)."""
        return state.storage_get(self.address, key)


def contract_method(func: Callable[..., Any]) -> Callable[..., Any]:
    """Mark a method as externally callable through transactions."""
    func._is_contract_method = True  # type: ignore[attr-defined]
    return func
