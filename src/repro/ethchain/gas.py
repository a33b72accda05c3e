"""Gas schedule and fee arithmetic for the simulated Ethereum chain.

The snapshot-anchoring cost analysis of the paper (Table III) is a pure
function of gas consumption, gas price, and the ether price.  The constants
below follow the mainnet schedule in force when the paper was written
(post-Istanbul / Berlin): 21,000 intrinsic gas per transaction, 16/4 gas per
non-zero/zero calldata byte, 20,000 gas for storing a fresh slot, and the
EIP-2929 cold-access surcharges.  The simulated :class:`SnapshotRegistry`
contract charges by this schedule, so the measured per-report figure can be
compared directly against the paper's 49,193 gas/day for a 24-hour period.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Intrinsic cost of any transaction.
TX_BASE_GAS = 21_000
#: Extra intrinsic cost of a contract-creation transaction.
TX_CREATE_GAS = 32_000
#: Calldata costs per byte.
CALLDATA_ZERO_BYTE_GAS = 4
CALLDATA_NONZERO_BYTE_GAS = 16
#: Storage operations.
SSTORE_SET_GAS = 20_000        # zero -> non-zero
SSTORE_RESET_GAS = 2_900       # non-zero -> non-zero (post EIP-2929 warm)
SSTORE_CLEAR_REFUND = 4_800
COLD_SLOAD_GAS = 2_100
WARM_SLOAD_GAS = 100
COLD_ACCOUNT_ACCESS_GAS = 2_600
#: Hashing and memory.
KECCAK_BASE_GAS = 30
KECCAK_WORD_GAS = 6
MEMORY_WORD_GAS = 3
#: Logging.
LOG_BASE_GAS = 375
LOG_TOPIC_GAS = 375
LOG_DATA_BYTE_GAS = 8
#: Per-byte cost of deployed contract code.
CODE_DEPOSIT_BYTE_GAS = 200

#: Units.
WEI_PER_GWEI = 10 ** 9
WEI_PER_ETHER = 10 ** 18


class OutOfGasError(Exception):
    """Raised when a transaction exhausts its gas limit."""


def intrinsic_gas(data: bytes, is_create: bool = False) -> int:
    """Intrinsic (pre-execution) gas of a transaction with ``data`` calldata."""
    gas = TX_BASE_GAS + (TX_CREATE_GAS if is_create else 0)
    for byte in data:
        gas += CALLDATA_ZERO_BYTE_GAS if byte == 0 else CALLDATA_NONZERO_BYTE_GAS
    return gas


def keccak_gas(data_length: int) -> int:
    """Gas charged for hashing ``data_length`` bytes."""
    words = (data_length + 31) // 32
    return KECCAK_BASE_GAS + KECCAK_WORD_GAS * words


def log_gas(topics: int, data_length: int) -> int:
    """Gas charged for emitting an event."""
    return LOG_BASE_GAS + LOG_TOPIC_GAS * topics + LOG_DATA_BYTE_GAS * data_length


class GasMeter:
    """Tracks gas consumption during native-contract execution."""

    def __init__(self, gas_limit: int) -> None:
        if gas_limit < 0:
            raise ValueError("gas limit must be non-negative")
        self.gas_limit = gas_limit
        self.gas_used = 0

    def charge(self, amount: int, reason: str = "") -> None:
        """Consume ``amount`` gas, raising :class:`OutOfGasError` if exhausted."""
        if amount < 0:
            raise ValueError("cannot charge negative gas")
        if self.gas_used + amount > self.gas_limit:
            self.gas_used = self.gas_limit
            raise OutOfGasError(reason or "out of gas")
        self.gas_used += amount


@dataclass(frozen=True)
class FeeSchedule:
    """Market parameters for converting gas into currency.

    Defaults match the figures quoted under Table III of the paper:
    a 22 gwei gas price and an ether price of 733 USD.
    """

    gas_price_gwei: float = 22.0
    ether_price_usd: float = 733.0

    def gas_price_wei(self) -> int:
        """Gas price in wei."""
        return int(self.gas_price_gwei * WEI_PER_GWEI)

    def gas_to_ether(self, gas: int) -> float:
        """Cost of ``gas`` units in ether."""
        return gas * self.gas_price_gwei * WEI_PER_GWEI / WEI_PER_ETHER

    def gas_to_usd(self, gas: int) -> float:
        """Cost of ``gas`` units in USD."""
        return self.gas_to_ether(gas) * self.ether_price_usd
