"""Latency and processing-time models.

The paper deploys cells on Azure B1ms instances and clients across several
geographic regions.  The simulator captures that with two ingredients:

* a *latency model* per network link — one-way propagation delay samples;
* a *service model* per cell — how long a cell takes to handle a bContract
  invocation, split into a **latency component** (work that delays the
  response but does not occupy a CPU worker: spawning the external
  interpreter for the bContract, disk syncs of the mutex-protected ledger,
  HTTP/TLS handling in the Node.js event loop) and a **CPU component**
  (work that occupies one of the cell's workers and therefore bounds
  throughput: signature checks, state updates, fingerprint hashing).

This split is what reproduces the paper's headline combination of numbers:
individual transactions take 2–5 s under normal load (latency-component
dominated, Fig. 8) while a burst of 20,000 transactions still completes in
tens of seconds (CPU-component dominated with high parallelism — the
"bulk discount" of Fig. 10).  Defaults approximate the Azure B1ms cells of
the paper; every benchmark can override them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


class LatencyModel:
    """Base class: a distribution of delays in seconds."""

    def sample(self, rng: random.Random) -> float:
        """Draw one delay sample."""
        raise NotImplementedError

    def mean(self) -> float:
        """The analytic mean of the distribution (for capacity planning)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """A fixed delay; useful for unit tests and asymptotic checks."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("latency cannot be negative")

    def sample(self, rng: random.Random) -> float:
        return self.delay

    def mean(self) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Uniformly distributed delay in ``[low, high]`` seconds."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError("uniform latency bounds must satisfy 0 <= low <= high")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2


@dataclass(frozen=True)
class LogNormalLatency(LatencyModel):
    """Log-normal delay — the classic heavy-ish tail of WAN round trips.

    ``median`` is the distribution median in seconds and ``sigma`` the shape
    parameter of the underlying normal; ``floor`` is a hard lower bound
    representing propagation delay no sample can beat.
    """

    median: float
    sigma: float = 0.35
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma < 0 or self.floor < 0:
            raise ValueError("log-normal latency parameters must be positive")

    def sample(self, rng: random.Random) -> float:
        mu = math.log(self.median)
        return max(self.floor, rng.lognormvariate(mu, self.sigma))

    def mean(self) -> float:
        mu = math.log(self.median)
        return max(self.floor, math.exp(mu + self.sigma ** 2 / 2))


@dataclass(frozen=True)
class CellServiceModel:
    """How long a Blockumulus cell takes to process protocol steps.

    Latency components (seconds, sampled per request, run concurrently up to
    ``max_parallel_invocations``):

    * ``invoke_overhead`` — spawning/settling the bContract interpreter and
      persisting the transaction in the mutex-protected ledger.
    * ``aggregate_overhead_per_cell`` — extra time the service cell spends
      collecting and checking each remote confirmation.
    * ``auth_overhead`` — parsing and authenticating the incoming request.

    CPU components (seconds of worker time; each cell has ``cpu_workers``
    workers, so these bound sustainable throughput):

    * ``invoke_cpu`` — executing the call and hashing the fingerprint.
    * ``forward_cpu_per_cell`` — serializing/signing the forwarded copy and
      verifying the returned confirmation, paid by the service cell per
      remote consortium member.
    """

    invoke_overhead: LatencyModel = field(
        default_factory=lambda: LogNormalLatency(median=0.50, sigma=0.55, floor=0.15)
    )
    auth_overhead: LatencyModel = field(
        default_factory=lambda: LogNormalLatency(median=0.07, sigma=0.40, floor=0.02)
    )
    aggregate_overhead_per_cell: float = 0.30
    invoke_cpu: float = 0.0009
    forward_cpu_per_cell: float = 0.0018
    cpu_workers: int = 2
    max_parallel_invocations: int = 1024

    def __post_init__(self) -> None:
        if self.cpu_workers < 1:
            raise ValueError("a cell needs at least one CPU worker")
        if self.max_parallel_invocations < 1:
            raise ValueError("max_parallel_invocations must be at least 1")
        if self.invoke_cpu < 0 or self.forward_cpu_per_cell < 0:
            raise ValueError("CPU costs must be non-negative")
        if self.aggregate_overhead_per_cell < 0:
            raise ValueError("aggregate overhead must be non-negative")

    def service_cpu_per_transaction(self, consortium_size: int) -> float:
        """CPU seconds the service cell spends on one transaction."""
        if consortium_size < 1:
            raise ValueError("consortium size must be at least 1")
        return self.invoke_cpu + self.forward_cpu_per_cell * (consortium_size - 1)


# ----------------------------------------------------------------------
# Pre-calibrated profiles
# ----------------------------------------------------------------------

def wan_client_to_cell() -> LatencyModel:
    """Client pools scattered across regions -> cell (one way)."""
    return LogNormalLatency(median=0.090, sigma=0.45, floor=0.020)


def wan_cell_to_cell() -> LatencyModel:
    """Cell-to-cell links between cloud regions (one way)."""
    return LogNormalLatency(median=0.045, sigma=0.35, floor=0.010)


def lan_latency() -> LatencyModel:
    """Same-datacenter links, used by the local Table II measurement setup."""
    return UniformLatency(0.0005, 0.0020)


def azure_b1ms_service_model() -> CellServiceModel:
    """Service-time profile approximating the paper's Azure B1ms cells."""
    return CellServiceModel()


def fast_test_service_model() -> CellServiceModel:
    """A near-zero-cost profile for functional unit tests."""
    return CellServiceModel(
        invoke_overhead=ConstantLatency(0.001),
        auth_overhead=ConstantLatency(0.0005),
        aggregate_overhead_per_cell=0.0005,
        invoke_cpu=0.0001,
        forward_cpu_per_cell=0.00002,
        cpu_workers=4,
        max_parallel_invocations=4096,
    )
