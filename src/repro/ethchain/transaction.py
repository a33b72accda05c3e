"""Ethereum-style transactions for the simulated chain.

Transactions are RLP-encoded, Keccak-hashed, and ECDSA-signed exactly like
legacy (pre-EIP-1559) Ethereum transactions, so the byte sizes, hashes, and
intrinsic gas match what a real anchor deployment would pay.  Contract calls
encode their method and arguments as canonical JSON in the ``data`` field;
the four-byte selector prefix is retained so calldata gas is comparable to a
Solidity ABI encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Optional

from ..crypto.ecdsa import Signature
from ..crypto.keccak import keccak256
from ..crypto.keys import Address, PrivateKey, PublicKey, recover_address
from ..encoding import canonical_json, rlp
from .gas import intrinsic_gas


class TransactionError(Exception):
    """Raised for malformed or incorrectly signed transactions."""


@lru_cache(maxsize=256)
def _selector(method: str) -> bytes:
    """The four-byte selector of a method name (hashed once per name)."""
    return keccak256(method.encode())[:4]


def encode_call_data(method: str, args: dict[str, Any]) -> bytes:
    """Encode a native-contract call as selector || canonical JSON."""
    body = canonical_json.dump_bytes({"method": method, "args": args})
    return _selector(method) + body


def decode_call_data(data: bytes) -> tuple[str, dict[str, Any]]:
    """Decode calldata produced by :func:`encode_call_data`."""
    if len(data) < 4:
        raise TransactionError("calldata too short to contain a selector")
    payload = canonical_json.loads(data[4:])
    method = payload.get("method")
    args = payload.get("args", {})
    if not isinstance(method, str) or not isinstance(args, dict):
        raise TransactionError("malformed contract calldata")
    if data[:4] != _selector(method):
        raise TransactionError("calldata selector does not match method name")
    return method, args


@dataclass
class EthTransaction:
    """A legacy Ethereum transaction."""

    nonce: int
    gas_price: int
    gas_limit: int
    to: Optional[Address]          # None for contract creation
    value: int
    data: bytes = b""
    signature: Optional[Signature] = None
    #: Cached sender address, populated on sign()/recovery.
    _sender: Optional[Address] = field(default=None, repr=False)
    #: The fields last hashed and their hash (see :meth:`hash`).
    _hashed: Optional[tuple[list[Any], bytes]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Encoding and hashing
    # ------------------------------------------------------------------
    def _signing_fields(self) -> list[Any]:
        to_bytes = self.to.value if self.to is not None else b""
        return [self.nonce, self.gas_price, self.gas_limit, to_bytes, self.value, self.data]

    def signing_hash(self) -> bytes:
        """The hash that the sender signs."""
        return keccak256(rlp.encode(self._signing_fields()))

    def _signed_fields(self) -> list[Any]:
        if self.signature is None:
            raise TransactionError("cannot encode an unsigned transaction")
        return self._signing_fields() + [
            self.signature.v + 27,
            self.signature.r,
            self.signature.s,
        ]

    def encode(self) -> bytes:
        """RLP encoding of the signed transaction."""
        return rlp.encode(self._signed_fields())

    def hash(self) -> bytes:
        """Transaction hash (of the signed RLP encoding).

        A transaction is hashed by the mempool, the block builder, the
        receipt and every lookup, so the hash is kept with the field values
        it was computed from and recomputed only when one of them differs
        (``sign()`` replacing the signature, say).
        """
        fields = self._signed_fields()
        if self._hashed is None or self._hashed[0] != fields:
            self._hashed = (fields, keccak256(rlp.encode(fields)))
        return self._hashed[1]

    def hash_hex(self) -> str:
        """0x-prefixed transaction hash."""
        return "0x" + self.hash().hex()

    def byte_size(self) -> int:
        """Size of the signed RLP encoding in bytes."""
        return len(self.encode())

    # ------------------------------------------------------------------
    # Signing and validation
    # ------------------------------------------------------------------
    def sign(self, key: PrivateKey) -> "EthTransaction":
        """Sign the transaction in place and return it."""
        self.signature = key.sign_hash(self.signing_hash())
        self._sender = key.address
        return self

    @property
    def sender(self) -> Address:
        """The sender address recovered from the signature."""
        if self._sender is not None:
            return self._sender
        if self.signature is None:
            raise TransactionError("transaction is unsigned")
        from ..crypto.ecdsa import recover_public_key

        public = recover_public_key(self.signing_hash(), self.signature)
        self._sender = PublicKey(public).address()
        return self._sender

    @property
    def is_create(self) -> bool:
        """True for contract-creation transactions."""
        return self.to is None

    def intrinsic_gas(self) -> int:
        """Intrinsic gas of this transaction."""
        return intrinsic_gas(self.data, is_create=self.is_create)

    def max_fee(self) -> int:
        """Upper bound on the fee in wei (gas_limit * gas_price)."""
        return self.gas_limit * self.gas_price

    def validate_basic(self) -> None:
        """Check signature presence and parameter sanity (pre-state checks)."""
        if self.signature is None:
            raise TransactionError("transaction is unsigned")
        if self.nonce < 0 or self.value < 0 or self.gas_price < 0:
            raise TransactionError("negative transaction fields")
        if self.gas_limit < self.intrinsic_gas():
            raise TransactionError(
                f"gas limit {self.gas_limit} below intrinsic gas {self.intrinsic_gas()}"
            )
        # Force signature recovery so a corrupted signature is rejected here.
        _ = self.sender

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def contract_call(
        cls,
        key: PrivateKey,
        nonce: int,
        contract: Address,
        method: str,
        args: dict[str, Any],
        gas_price: int,
        gas_limit: int = 500_000,
        value: int = 0,
    ) -> "EthTransaction":
        """Build and sign a call to a native contract."""
        tx = cls(
            nonce=nonce,
            gas_price=gas_price,
            gas_limit=gas_limit,
            to=contract,
            value=value,
            data=encode_call_data(method, args),
        )
        return tx.sign(key)

    @classmethod
    def transfer(
        cls,
        key: PrivateKey,
        nonce: int,
        to: Address,
        value: int,
        gas_price: int,
        gas_limit: int = 21_000,
    ) -> "EthTransaction":
        """Build and sign a plain value transfer."""
        tx = cls(nonce=nonce, gas_price=gas_price, gas_limit=gas_limit, to=to, value=value)
        return tx.sign(key)


@dataclass
class TransactionReceipt:
    """Execution outcome of one transaction inside a block."""

    tx_hash: str
    block_number: int
    tx_index: int
    sender: Address
    to: Optional[Address]
    success: bool
    gas_used: int
    fee_wei: int
    return_value: Any = None
    error: Optional[str] = None
    logs: list[dict[str, Any]] = field(default_factory=list)
    contract_address: Optional[Address] = None
