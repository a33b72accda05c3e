"""Blocks of the simulated Ethereum chain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..crypto.keccak import keccak256
from ..crypto.keys import Address
from ..crypto.merkle import merkle_root
from ..encoding import rlp
from .transaction import EthTransaction, TransactionReceipt

#: Genesis parent hash.
GENESIS_PARENT_HASH = b"\x00" * 32
#: Block gas limit (mainnet-era value; bounds how many reports fit a block).
DEFAULT_BLOCK_GAS_LIMIT = 15_000_000


@dataclass
class BlockHeader:
    """Header fields that feed the block hash."""

    number: int
    parent_hash: bytes
    timestamp: float
    miner: Address
    transactions_root: bytes
    state_nonce: int = 0
    gas_used: int = 0
    gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT
    difficulty: int = 1
    #: The fields last hashed and their hash (see :meth:`hash`).
    _hashed: Optional[tuple[list[Any], bytes]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def hash(self) -> bytes:
        """Keccak hash of the RLP-encoded header.

        Every child block, lookup and anchor receipt asks for it, so the hash
        is kept with the field values it was computed from and recomputed
        only when one of them differs (``gas_used`` is filled in after the
        block's transactions ran).
        """
        fields = [
            self.number,
            self.parent_hash,
            int(self.timestamp * 1000),
            self.miner.value,
            self.transactions_root,
            self.state_nonce,
            self.gas_used,
            self.gas_limit,
            self.difficulty,
        ]
        if self._hashed is None or self._hashed[0] != fields:
            self._hashed = (fields, keccak256(rlp.encode(fields)))
        return self._hashed[1]

    def hash_hex(self) -> str:
        """0x-prefixed block hash."""
        return "0x" + self.hash().hex()


@dataclass
class Block:
    """A block: header plus the transactions it includes."""

    header: BlockHeader
    transactions: list[EthTransaction] = field(default_factory=list)
    receipts: list[TransactionReceipt] = field(default_factory=list)

    @property
    def number(self) -> int:
        """Block height."""
        return self.header.number

    @property
    def timestamp(self) -> float:
        """Block timestamp (simulated seconds)."""
        return self.header.timestamp

    def hash(self) -> bytes:
        """The block hash."""
        return self.header.hash()

    def hash_hex(self) -> str:
        """0x-prefixed block hash."""
        return self.header.hash_hex()

    def byte_size(self) -> int:
        """Approximate serialized block size (header + transactions)."""
        return 512 + sum(tx.byte_size() for tx in self.transactions)


def build_block(
    number: int,
    parent_hash: bytes,
    timestamp: float,
    miner: Address,
    transactions: list[EthTransaction],
    gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT,
) -> Block:
    """Assemble an (unexecuted) block over ``transactions``."""
    tx_root = merkle_root([tx.hash() for tx in transactions]) if transactions else b"\x00" * 32
    header = BlockHeader(
        number=number,
        parent_hash=parent_hash,
        timestamp=timestamp,
        miner=miner,
        transactions_root=tx_root,
        gas_limit=gas_limit,
    )
    return Block(header=header, transactions=list(transactions))
