"""An Ethereum node process living inside the discrete-event simulation.

The node owns a :class:`Blockchain` and a :class:`Mempool` and runs a miner
process that produces blocks at stochastic intervals (Ropsten-like ~13 s
mean by default).  Cells submit snapshot reports to it, clients submit
contingency transactions to it, and auditors read anchored fingerprints
from it — all through the provider interface in
:mod:`repro.ethchain.provider`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

if TYPE_CHECKING:
    import random

from ..crypto.keys import Address, PrivateKey
from ..sim.environment import Environment
from ..sim.events import Event
from .chain import Blockchain, ChainConfig
from .mempool import Mempool, MempoolError
from .transaction import EthTransaction, TransactionReceipt


class EthereumNode:
    """A mining Ethereum node attached to a simulation environment."""

    def __init__(
        self,
        env: Environment,
        rng: random.Random,
        config: ChainConfig | None = None,
        auto_mine: bool = True,
    ) -> None:
        self.env = env
        self.rng = rng
        self.chain = Blockchain(config=config, genesis_time=env.now)
        self.mempool = Mempool()
        self.miner_key = PrivateKey.from_seed("simulated-miner")
        self._receipt_waiters: dict[str, list[Event]] = {}
        self._mining_process = None
        if auto_mine:
            self.start_mining()

    @property
    def miner_address(self) -> Address:
        """Address collecting block rewards/fees."""
        return self.miner_key.address

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------
    def start_mining(self) -> None:
        """Start the block-production process (idempotent)."""
        if self._mining_process is None or not self._mining_process.is_alive:
            self._mining_process = self.env.process(self._mine_loop())

    def _next_block_delay(self) -> float:
        """PoW block intervals are approximately exponential."""
        interval = self.chain.config.target_block_interval
        return max(0.5, self.rng.expovariate(1.0 / interval))

    def _mine_loop(self) -> Generator[Event, None, None]:
        while True:
            yield self.env.timeout(self._next_block_delay())
            self.mine_block()

    def mine_block(self) -> Optional[object]:
        """Mine one block immediately from the current mempool contents."""
        selected = self.mempool.select_for_block(
            self.chain.expected_nonces(), self.chain.config.block_gas_limit
        )
        block = self.chain.apply_block(selected, self.miner_address, self.env.now)
        self.mempool.remove_mined(selected)
        for receipt in block.receipts:
            self._notify_receipt(receipt)
        return block

    def _notify_receipt(self, receipt: TransactionReceipt) -> None:
        waiters = self._receipt_waiters.pop(receipt.tx_hash, [])
        for event in waiters:
            if not event.triggered:
                event.succeed(receipt)

    # ------------------------------------------------------------------
    # Transaction submission
    # ------------------------------------------------------------------
    def submit_transaction(self, tx: EthTransaction) -> str:
        """Add a signed transaction to the mempool; returns its hash."""
        return self.mempool.add(tx)

    def submit_and_wait(self, tx: EthTransaction) -> Event:
        """Submit a transaction and return an event firing with its receipt."""
        try:
            tx_hash = self.submit_transaction(tx)
        except MempoolError as exc:
            failed = self.env.event()
            failed.fail(exc)
            return failed
        return self.wait_for_receipt(tx_hash)

    def wait_for_receipt(self, tx_hash: str) -> Event:
        """An event that fires with the receipt once the tx is mined."""
        event = self.env.event()
        existing = self.chain.receipt(tx_hash)
        if existing is not None:
            event.succeed(existing)
            return event
        self._receipt_waiters.setdefault(tx_hash, []).append(event)
        return event

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    def get_nonce(self, address: Address) -> int:
        """Next nonce for ``address``, counting pending mempool transactions."""
        base = self.chain.state.nonce_of(address)
        pending = [
            tx.nonce
            for tx in self.mempool.pending()
            if tx.sender == address and tx.nonce >= base
        ]
        return (max(pending) + 1) if pending else base

    def get_balance(self, address: Address) -> int:
        """Confirmed balance in wei."""
        return self.chain.state.balance_of(address)
