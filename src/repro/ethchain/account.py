"""Accounts and world state for the simulated Ethereum chain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto.keys import Address


class StateError(Exception):
    """Raised for invalid balance or nonce operations."""


@dataclass
class Account:
    """One account: externally owned if ``contract_name`` is None."""

    address: Address
    nonce: int = 0
    balance: int = 0
    contract_name: Optional[str] = None
    storage: dict[str, bytes] = field(default_factory=dict)


class WorldState:
    """The account trie of the simulated chain (a plain dict here)."""

    def __init__(self) -> None:
        self._accounts: dict[Address, Account] = {}

    def account(self, address: Address) -> Account:
        """Get (creating lazily) the account at ``address``."""
        if address not in self._accounts:
            self._accounts[address] = Account(address=address)
        return self._accounts[address]

    def balance_of(self, address: Address) -> int:
        """Balance in wei (0 for untouched accounts)."""
        account = self._accounts.get(address)
        return account.balance if account else 0

    def nonce_of(self, address: Address) -> int:
        """Next expected transaction nonce."""
        account = self._accounts.get(address)
        return account.nonce if account else 0

    def credit(self, address: Address, amount: int) -> None:
        """Add ``amount`` wei to an account."""
        if amount < 0:
            raise StateError("cannot credit a negative amount")
        self.account(address).balance += amount

    def debit(self, address: Address, amount: int) -> None:
        """Remove ``amount`` wei from an account, failing on overdraft."""
        if amount < 0:
            raise StateError("cannot debit a negative amount")
        account = self.account(address)
        if account.balance < amount:
            raise StateError(
                f"insufficient balance at {address.short()}: "
                f"{account.balance} < {amount}"
            )
        account.balance -= amount

    def transfer(self, sender: Address, recipient: Address, amount: int) -> None:
        """Move ``amount`` wei from ``sender`` to ``recipient``."""
        self.debit(sender, amount)
        self.credit(recipient, amount)

    def increment_nonce(self, address: Address) -> None:
        """Advance the sender nonce after a transaction is applied."""
        self.account(address).nonce += 1

    def set_contract(self, address: Address, contract_name: str) -> None:
        """Mark an account as hosting the named native contract."""
        self.account(address).contract_name = contract_name

    def storage_get(self, address: Address, key: str) -> bytes | None:
        """Read a raw storage slot of a contract account."""
        account = self._accounts.get(address)
        if account is None:
            return None
        return account.storage.get(key)

    def storage_set(self, address: Address, key: str, value: bytes) -> bool:
        """Write a storage slot; returns True if the slot was previously empty."""
        account = self.account(address)
        fresh = key not in account.storage
        account.storage[key] = value
        return fresh

    def addresses(self) -> list[Address]:
        """All touched addresses."""
        return list(self._accounts)
