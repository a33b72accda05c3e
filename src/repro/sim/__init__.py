"""Deterministic discrete-event simulation kernel.

Provides the environment/process machinery, seeded RNG streams, latency and
service-time models, a byte-accurate simulated network, capacity-limited
resources, and metrics collection.  Every experiment in the benchmark
harness runs inside this kernel.
"""

from .environment import Clock, EmptySchedule, Environment
from .events import AllOf, AnyOf, ConditionError, Event, Process, SimulationError, Timeout
from .latency import (
    CellServiceModel,
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
    azure_b1ms_service_model,
    fast_test_service_model,
    lan_latency,
    wan_cell_to_cell,
    wan_client_to_cell,
)
from .metrics import (
    MetricsError,
    MetricsRegistry,
    SampleSeries,
    ThroughputResult,
    ascii_bars,
    ascii_cdf,
    format_seconds,
)
from .network import (
    DEFAULT_DOWNLINK_BPS,
    DEFAULT_UPLINK_BPS,
    HTTP_FRAMING_BYTES,
    Network,
    NodeConfig,
    TrafficCounter,
)
from .resources import ConflictGate, Resource
from .rng import SeedSequence

__all__ = [
    "AllOf",
    "AnyOf",
    "CellServiceModel",
    "Clock",
    "ConditionError",
    "ConflictGate",
    "ConstantLatency",
    "DEFAULT_DOWNLINK_BPS",
    "DEFAULT_UPLINK_BPS",
    "EmptySchedule",
    "Environment",
    "Event",
    "HTTP_FRAMING_BYTES",
    "LatencyModel",
    "LogNormalLatency",
    "MetricsError",
    "MetricsRegistry",
    "Network",
    "NodeConfig",
    "Process",
    "Resource",
    "SampleSeries",
    "SeedSequence",
    "SimulationError",
    "ThroughputResult",
    "Timeout",
    "TrafficCounter",
    "UniformLatency",
    "ascii_bars",
    "ascii_cdf",
    "azure_b1ms_service_model",
    "fast_test_service_model",
    "format_seconds",
    "lan_latency",
    "wan_cell_to_cell",
    "wan_client_to_cell",
]
