"""A minimal ERC-20-style fungible token as a native contract.

Used by the Ethereum-L1 baseline (E9) to run the same payment workload that
FastMoney executes on Blockumulus, so fee and latency comparisons are
apples-to-apples, and by examples demonstrating the simulated chain on its
own.
"""

from __future__ import annotations

from typing import Any

from ...crypto.keys import Address
from .base import CallContext, ContractError, NativeContract, contract_method


class ERC20Token(NativeContract):
    """Fixed-supply fungible token with transfer/approve/transferFrom."""

    NAME = "ERC20Token"
    decimals = 18

    def __init__(self, address: Address, name: str, symbol: str) -> None:
        super().__init__(address)
        self.token_name = name
        self.symbol = symbol

    @staticmethod
    def _balance_key(owner: str) -> str:
        return f"balance/{owner}"

    @staticmethod
    def _allowance_key(owner: str, spender: str) -> str:
        return f"allowance/{owner}/{spender}"

    _SUPPLY_KEY = "total_supply"

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------
    def _get_balance(self, ctx: CallContext, owner: str) -> int:
        raw = self.sload(ctx, self._balance_key(owner))
        return int(raw.decode()) if raw else 0

    def _set_balance(self, ctx: CallContext, owner: str, amount: int) -> None:
        self.sstore(ctx, self._balance_key(owner), str(amount).encode())

    # ------------------------------------------------------------------
    # Methods
    # ------------------------------------------------------------------
    @contract_method
    def mint(self, ctx: CallContext, to: str, amount: int) -> dict[str, Any]:
        """Create ``amount`` tokens for ``to`` (deployer-style faucet)."""
        if amount <= 0:
            raise ContractError("mint: amount must be positive")
        raw_supply = self.sload(ctx, self._SUPPLY_KEY)
        supply = int(raw_supply.decode()) if raw_supply else 0
        self._set_balance(ctx, to, self._get_balance(ctx, to) + amount)
        self.sstore(ctx, self._SUPPLY_KEY, str(supply + amount).encode())
        self.emit(ctx, "Transfer", source=None, destination=to, amount=amount)
        return {"to": to, "amount": amount}

    @contract_method
    def transfer(self, ctx: CallContext, to: str, amount: int) -> dict[str, Any]:
        """Move ``amount`` tokens from the caller to ``to``."""
        if amount <= 0:
            raise ContractError("transfer: amount must be positive")
        sender = ctx.sender.hex()
        balance = self._get_balance(ctx, sender)
        if balance < amount:
            raise ContractError("transfer: insufficient balance")
        self._set_balance(ctx, sender, balance - amount)
        self._set_balance(ctx, to, self._get_balance(ctx, to) + amount)
        self.emit(ctx, "Transfer", source=sender, destination=to, amount=amount)
        return {"from": sender, "to": to, "amount": amount}

    @contract_method
    def approve(self, ctx: CallContext, spender: str, amount: int) -> dict[str, Any]:
        """Authorize ``spender`` to transfer up to ``amount`` of caller funds."""
        if amount < 0:
            raise ContractError("approve: amount must be non-negative")
        owner = ctx.sender.hex()
        self.sstore(ctx, self._allowance_key(owner, spender), str(amount).encode())
        self.emit(ctx, "Approval", owner=owner, spender=spender, amount=amount)
        return {"owner": owner, "spender": spender, "amount": amount}

    @contract_method
    def transfer_from(self, ctx: CallContext, owner: str, to: str, amount: int) -> dict[str, Any]:
        """Spend an allowance granted by ``owner``."""
        if amount <= 0:
            raise ContractError("transfer_from: amount must be positive")
        spender = ctx.sender.hex()
        raw_allowance = self.sload(ctx, self._allowance_key(owner, spender))
        allowance = int(raw_allowance.decode()) if raw_allowance else 0
        if allowance < amount:
            raise ContractError("transfer_from: allowance exceeded")
        balance = self._get_balance(ctx, owner)
        if balance < amount:
            raise ContractError("transfer_from: insufficient owner balance")
        self.sstore(ctx, self._allowance_key(owner, spender), str(allowance - amount).encode())
        self._set_balance(ctx, owner, balance - amount)
        self._set_balance(ctx, to, self._get_balance(ctx, to) + amount)
        self.emit(ctx, "Transfer", source=owner, destination=to, amount=amount)
        return {"from": owner, "to": to, "amount": amount}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def balance_of(self, state, owner: Address | str) -> int:
        """Token balance of ``owner`` (gas-free view)."""
        key = owner.hex() if isinstance(owner, Address) else owner
        raw = self.view(state, self._balance_key(key))
        return int(raw.decode()) if raw else 0

    def total_supply(self, state) -> int:
        """Total minted supply (gas-free view)."""
        raw = self.view(state, self._SUPPLY_KEY)
        return int(raw.decode()) if raw else 0
