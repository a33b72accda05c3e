"""The host clock: CPU time, normalised by a frozen calibration slice.

The simulator is single-threaded, so ``time.process_time()`` of the call
under test is what the Python costs.  On a small shared machine that
number drifts by tens of percent over tens of seconds, so every timed
call is bracketed by a fixed pure-Python *calibration slice* and reported
in units of it — seconds on a reference machine on which the slice takes
exactly 100 ms.

The slice's constants are frozen: changing them changes the unit of every
host-clock metric, which is a new benchmark, not a tuning knob.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

#: Seconds the calibration slice takes on the reference machine.
CALIB_REF_S = 0.100
#: Iterations of the slice body (~0.1 s of CPU on the sizing box).
CALIB_ROUNDS = 12_000


class _Account:
    """A small object with a method, allocated and called by the slice."""

    __slots__ = ("owner", "balance")

    def __init__(self, owner: str, balance: int) -> None:
        self.owner = owner
        self.balance = balance

    def credit(self, amount: int) -> int:
        self.balance += amount
        return self.balance


def calibration_slice(rounds: int = CALIB_ROUNDS) -> float:
    """Run the frozen slice once; returns the CPU seconds it took.

    Only the smoke test, which checks plumbing and reports no timing,
    passes fewer ``rounds``.

    The mix mirrors what the program under test spends its time on: dict
    and string updates, small-object allocation, method calls, sorted-key
    JSON encoding of a small nested dict, and BLAKE2b of ~200 bytes.
    """
    started = time.process_time()
    table: dict[str, int] = {}
    accounts: list[_Account] = []
    digest = b"\x00" * 32
    for index in range(rounds):
        key = "balance/0x" + format(index * 2_654_435_761 % 1_000_003, "040x")
        table[key] = table.get(key, 0) + index
        account = _Account(key, index)
        for amount in range(8):
            account.credit(amount)
        accounts.append(account)
        if len(accounts) > 64:
            accounts = accounts[32:]
        body = {
            "payload": {
                "data": {"args": {"amount": index, "to": key}, "method": "transfer"},
                "nonce": key[-24:],
                "sender": key[-40:],
                "timestamp": index * 0.25,
            },
            "scheme": "sim",
            "signature": "0x" + digest.hex(),
        }
        encoded = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        digest = hashlib.blake2b(encoded[:200], digest_size=32).digest()
    if len(table) != rounds:  # keeps the work observable
        raise AssertionError("calibration slice lost keys")
    return time.process_time() - started


def timed(call: Callable[[], T]) -> tuple[T, float, float]:
    """Run ``call``; returns (its value, CPU seconds, wall seconds)."""
    wall = time.perf_counter()
    cpu = time.process_time()
    value = call()
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    return value, cpu, wall


def reference_seconds(seconds: float, calib_s: float) -> float:
    """``seconds`` of this machine, in seconds of the reference machine.

    ``calib_s`` is the calibration of the run the measurement is from.
    """
    return seconds / calib_s * CALIB_REF_S


def iqr_share(values: list[float]) -> float:
    """Inter-quartile range as a share of the median (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    first, _mid, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
