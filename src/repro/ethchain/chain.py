"""The simulated Ethereum blockchain: state transitions and block storage.

The chain executes plain value transfers and calls to registered native
contracts (:mod:`repro.ethchain.contracts`), charging gas by the mainnet
schedule, collecting fees for the miner, and producing receipts.  It is
deliberately single-forked: the Blockumulus anchor contract only needs an
append-only, totally ordered log with fee accounting, and the paper treats
the public chain as a black box with exactly those properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..crypto.keccak import keccak256
from ..crypto.keys import Address, PrivateKey
from .account import StateError, WorldState
from .block import Block, GENESIS_PARENT_HASH, build_block
from .contracts.base import CallContext, ContractError, NativeContract
from .gas import FeeSchedule, GasMeter, OutOfGasError
from .transaction import (
    EthTransaction,
    TransactionError,
    TransactionReceipt,
    decode_call_data,
)


class ChainError(Exception):
    """Raised for invalid blocks or transactions at the chain level."""


@dataclass
class ChainConfig:
    """Chain-wide parameters."""

    chain_id: int = 1337
    block_gas_limit: int = 15_000_000
    #: Average seconds between blocks (Ropsten-like).
    target_block_interval: float = 13.0
    fee_schedule: FeeSchedule = field(default_factory=FeeSchedule)


class Blockchain:
    """A single-fork chain with native-contract execution."""

    def __init__(self, config: ChainConfig | None = None, genesis_time: float = 0.0) -> None:
        self.config = config or ChainConfig()
        self.state = WorldState()
        self.blocks: list[Block] = []
        self.receipts: dict[str, TransactionReceipt] = {}
        self.contracts: dict[Address, NativeContract] = {}
        self._genesis_time = genesis_time
        genesis = build_block(
            number=0,
            parent_hash=GENESIS_PARENT_HASH,
            timestamp=genesis_time,
            miner=Address.zero(),
            transactions=[],
            gas_limit=self.config.block_gas_limit,
        )
        self.blocks.append(genesis)

    # ------------------------------------------------------------------
    # Chain queries
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of the latest block."""
        return self.blocks[-1].number

    def latest_block(self) -> Block:
        """The most recently appended block."""
        return self.blocks[-1]

    def receipt(self, tx_hash: str) -> Optional[TransactionReceipt]:
        """Receipt of a mined transaction, or None if not yet mined."""
        return self.receipts.get(tx_hash)

    def expected_nonces(self) -> dict[Address, int]:
        """Next nonce per touched account (for mempool block selection)."""
        return {address: self.state.nonce_of(address) for address in self.state.addresses()}

    # ------------------------------------------------------------------
    # Account funding and contract deployment
    # ------------------------------------------------------------------
    def fund(self, address: Address, amount_wei: int) -> None:
        """Credit an account out of thin air (genesis/faucet helper)."""
        self.state.credit(address, amount_wei)

    def deploy_contract(self, contract: NativeContract) -> Address:
        """Register a native contract instance at its address."""
        if contract.address in self.contracts:
            raise ChainError(f"contract already deployed at {contract.address.hex()}")
        self.contracts[contract.address] = contract
        self.state.set_contract(contract.address, contract.NAME)
        return contract.address

    def contract_at(self, address: Address) -> NativeContract:
        """The contract instance deployed at ``address``."""
        try:
            return self.contracts[address]
        except KeyError:
            raise ChainError(f"no contract deployed at {address.hex()}") from None

    @staticmethod
    def contract_address_for(deployer: Address, salt: str) -> Address:
        """Deterministic contract address derivation (CREATE2-like)."""
        return Address(keccak256(deployer.value + salt.encode())[-20:])

    # ------------------------------------------------------------------
    # Transaction execution
    # ------------------------------------------------------------------
    def _execute_transaction(
        self, tx: EthTransaction, block_number: int, tx_index: int, timestamp: float
    ) -> TransactionReceipt:
        sender = tx.sender
        expected_nonce = self.state.nonce_of(sender)
        if tx.nonce != expected_nonce:
            raise ChainError(
                f"invalid nonce for {sender.short()}: got {tx.nonce}, expected {expected_nonce}"
            )
        max_fee = tx.max_fee()
        if self.state.balance_of(sender) < max_fee + tx.value:
            raise ChainError(f"insufficient funds for gas * price + value at {sender.short()}")

        # Charge the maximum fee up front; refund the unused part afterwards.
        self.state.debit(sender, max_fee)
        self.state.increment_nonce(sender)

        meter = GasMeter(tx.gas_limit)
        logs: list[dict[str, Any]] = []
        success = True
        error: Optional[str] = None
        return_value: Any = None
        try:
            meter.charge(tx.intrinsic_gas(), "intrinsic gas")
            if tx.value and tx.to is not None:
                self.state.transfer(sender, tx.to, tx.value)
            if tx.to is not None and tx.to in self.contracts:
                contract = self.contracts[tx.to]
                method, args = decode_call_data(tx.data)
                ctx = CallContext(
                    sender=sender,
                    value=tx.value,
                    block_number=block_number,
                    timestamp=timestamp,
                    gas=meter,
                    state=self.state,
                    address=tx.to,
                    logs=logs,
                )
                return_value = contract.call(ctx, method, args)
        except (ContractError, OutOfGasError, TransactionError, StateError) as exc:
            success = False
            error = f"{type(exc).__name__}: {exc}"
            # Revert the value transfer if it happened before the failure.
            if tx.value and tx.to is not None and isinstance(exc, (ContractError, OutOfGasError)):
                try:
                    self.state.transfer(tx.to, sender, tx.value)
                except StateError:
                    pass
            logs = []

        gas_used = min(max(meter.gas_used, tx.intrinsic_gas()), tx.gas_limit)
        fee = gas_used * tx.gas_price
        # Refund unused gas to the sender and pay the miner later via block apply.
        self.state.credit(sender, max_fee - fee)

        receipt = TransactionReceipt(
            tx_hash=tx.hash_hex(),
            block_number=block_number,
            tx_index=tx_index,
            sender=sender,
            to=tx.to,
            success=success,
            gas_used=gas_used,
            fee_wei=fee,
            return_value=return_value,
            error=error,
            logs=logs,
        )
        return receipt

    def apply_block(self, transactions: list[EthTransaction], miner: Address, timestamp: float) -> Block:
        """Execute ``transactions``, append the resulting block, return it."""
        parent = self.latest_block()
        if timestamp < parent.timestamp:
            timestamp = parent.timestamp
        block = build_block(
            number=parent.number + 1,
            parent_hash=parent.hash(),
            timestamp=timestamp,
            miner=miner,
            transactions=transactions,
            gas_limit=self.config.block_gas_limit,
        )
        total_gas = 0
        total_fees = 0
        for index, tx in enumerate(transactions):
            receipt = self._execute_transaction(tx, block.number, index, timestamp)
            block.receipts.append(receipt)
            self.receipts[receipt.tx_hash] = receipt
            total_gas += receipt.gas_used
            total_fees += receipt.fee_wei
        if total_gas > self.config.block_gas_limit:
            raise ChainError("block gas limit exceeded")
        block.header.gas_used = total_gas
        self.state.credit(miner, total_fees)
        self.blocks.append(block)
        return block

    # ------------------------------------------------------------------
    # Gas-free calls
    # ------------------------------------------------------------------
    def call_view(self, contract_address: Address, view_name: str, *args: Any) -> Any:
        """Invoke a named gas-free view method on a deployed contract."""
        contract = self.contract_at(contract_address)
        view = getattr(contract, view_name, None)
        if view is None or not callable(view):
            raise ChainError(f"{contract.NAME} has no view {view_name!r}")
        return view(self.state, *args)


def make_funded_key(chain: Blockchain, seed: str, ether: float = 100.0) -> PrivateKey:
    """Create a deterministic key and fund it on ``chain`` (test/bench helper)."""
    key = PrivateKey.from_seed(seed)
    chain.fund(key.address, int(ether * 10 ** 18))
    return key
