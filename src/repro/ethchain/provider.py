"""A web3.py-like provider facade over the simulated Ethereum node.

The original Blockumulus implementation talks to Ropsten through Web3.js /
Web3.py; cells and auditors in this reproduction talk to the simulated node
through this provider, which exposes the same handful of operations
(nonce/balance queries, transaction submission, receipt polling, contract
views) with a deliberately familiar method naming.
"""

from __future__ import annotations

from typing import Any

from ..crypto.keys import Address, PrivateKey
from ..sim.events import Event
from .node import EthereumNode
from .transaction import EthTransaction


class Web3Provider:
    """Thin account-aware wrapper around an :class:`EthereumNode`."""

    def __init__(self, node: EthereumNode) -> None:
        self.node = node
        self.default_gas_price_wei = node.chain.config.fee_schedule.gas_price_wei()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get_nonce(self, address: Address) -> int:
        """Pending-aware account nonce."""
        return self.node.get_nonce(address)

    def get_balance(self, address: Address) -> int:
        """Account balance in wei."""
        return self.node.get_balance(address)

    def block_number(self) -> int:
        """Height of the latest block."""
        return self.node.chain.height

    def call(self, contract_address: Address, view_name: str, *args: Any) -> Any:
        """Gas-free contract view call (eth_call analogue)."""
        return self.node.chain.call_view(contract_address, view_name, *args)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def send_raw_transaction(self, tx: EthTransaction) -> str:
        """Submit an already-signed transaction."""
        return self.node.submit_transaction(tx)

    def transact(
        self, key: PrivateKey, contract_address: Address, method: str, args: dict[str, Any]
    ) -> str:
        """Build, sign, and submit a contract call; returns the tx hash."""
        return self.send_raw_transaction(self._contract_call(key, contract_address, method, args))

    def transact_and_wait(
        self, key: PrivateKey, contract_address: Address, method: str, args: dict[str, Any]
    ) -> Event:
        """Like :meth:`transact` but returns an event firing with the receipt."""
        return self.node.submit_and_wait(self._contract_call(key, contract_address, method, args))

    def _contract_call(
        self, key: PrivateKey, contract_address: Address, method: str, args: dict[str, Any]
    ) -> EthTransaction:
        """The signed call both submissions send, at the default gas price."""
        return EthTransaction.contract_call(
            key=key,
            nonce=self.node.get_nonce(key.address),
            contract=contract_address,
            method=method,
            args=args,
            gas_price=self.default_gas_price_wei,
        )

    def transfer(self, key: PrivateKey, to: Address, value_wei: int) -> str:
        """Submit a plain value transfer."""
        tx = EthTransaction.transfer(
            key=key,
            nonce=self.get_nonce(key.address),
            to=to,
            value=value_wei,
            gas_price=self.default_gas_price_wei,
        )
        return self.send_raw_transaction(tx)

    def wait_for_receipt(self, tx_hash: str) -> Event:
        """Event firing with the receipt of ``tx_hash``."""
        return self.node.wait_for_receipt(tx_hash)
