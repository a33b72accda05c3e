"""A simulated message network connecting cells, clients, and auditors.

Nodes register by name and receive messages through a handler callback.
Message delivery takes the link's propagation latency plus a transmission
delay derived from the message size and the endpoints' up/down bandwidth —
the same two quantities the paper measures with WireShark (Table II) and
Ookla (Section VI-D).  All delivered bytes are accounted per (sender,
receiver) pair so the communication-overhead benchmark can read exact
per-vector totals without any packet capture.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .environment import Environment
from .events import SimulationError
from .latency import ConstantLatency, LatencyModel

#: Default bandwidths reported by the paper's Ookla measurements (bits/s).
DEFAULT_UPLINK_BPS = 1_000_000_000.0
DEFAULT_DOWNLINK_BPS = 8_500_000_000.0

#: Modelled fixed overhead of an HTTP exchange carrying one message, in
#: bytes (request line / status line plus minimal headers).  The paper's
#: Table II byte counts were taken with WireShark's "Follow TCP Stream" on
#: persistent connections, so only the HTTP framing — not TCP handshakes —
#: rides on top of the JSON body.
HTTP_FRAMING_BYTES = 60

MessageHandler = Callable[[str, Any, int], None]


@dataclass
class TrafficCounter:
    """Bytes and message counts observed on one directed (src, dst) pair."""

    messages: int = 0
    bytes: int = 0

    def record(self, size: int) -> None:
        self.messages += 1
        self.bytes += size


@dataclass
class NodeConfig:
    """Per-node network characteristics."""

    uplink_bps: float = DEFAULT_UPLINK_BPS
    downlink_bps: float = DEFAULT_DOWNLINK_BPS
    handler: Optional[MessageHandler] = None
    online: bool = True
    extra: dict[str, Any] = field(default_factory=dict)


class Network:
    """The simulated network fabric."""

    def __init__(
        self,
        env: Environment,
        rng: random.Random,
        default_latency: LatencyModel | None = None,
    ) -> None:
        self.env = env
        self.rng = rng
        self.default_latency = default_latency or ConstantLatency(0.001)
        self._nodes: dict[str, NodeConfig] = {}
        self._links: dict[tuple[str, str], LatencyModel] = {}
        self._partitions: dict[int, frozenset[str]] = {}
        self._next_partition_id = 1
        self._skews: dict[str, float] = {}
        self.traffic: dict[tuple[str, str], TrafficCounter] = defaultdict(TrafficCounter)
        self.dropped_messages = 0

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        handler: Optional[MessageHandler] = None,
        uplink_bps: float = DEFAULT_UPLINK_BPS,
        downlink_bps: float = DEFAULT_DOWNLINK_BPS,
    ) -> NodeConfig:
        """Register (or update) a node and return its configuration."""
        if uplink_bps <= 0 or downlink_bps <= 0:
            raise SimulationError("bandwidth must be positive")
        config = self._nodes.get(name)
        if config is None:
            config = NodeConfig(uplink_bps=uplink_bps, downlink_bps=downlink_bps)
            self._nodes[name] = config
        config.handler = handler if handler is not None else config.handler
        config.uplink_bps = uplink_bps
        config.downlink_bps = downlink_bps
        return config

    def set_link(self, src: str, dst: str, latency: LatencyModel) -> None:
        """Set the latency model for the link ``src`` <-> ``dst``, both directions."""
        self._links[(src, dst)] = latency
        self._links[(dst, src)] = latency

    def set_online(self, name: str, online: bool) -> None:
        """Mark a node as reachable or unreachable (fault injection)."""
        self._require_node(name).online = online

    def is_online(self, name: str) -> bool:
        """Whether the node currently accepts messages."""
        return self._require_node(name).online

    # ------------------------------------------------------------------
    # Partitions and clock/latency skew (fault injection)
    # ------------------------------------------------------------------
    def partition(self, members: Iterable[str]) -> int:
        """Cut the named nodes off from the rest of the network.

        While the partition is active, messages cross the cut in neither
        direction (they are dropped at send time, exactly like traffic to
        an offline node); nodes on the same side still talk normally.
        Returns a partition id for :meth:`heal`.  Unlike
        :meth:`set_online`, a partitioned node keeps running — it just
        cannot be reached, which is what distinguishes a network cut
        from a crash.
        """
        cut = frozenset(members)
        if not cut:
            raise SimulationError("a partition needs at least one member")
        for name in cut:
            self._require_node(name)
        partition_id = self._next_partition_id
        self._next_partition_id += 1
        self._partitions[partition_id] = cut
        return partition_id

    def heal(self, partition_id: int) -> None:
        """Merge a partition back into the network."""
        if self._partitions.pop(partition_id, None) is None:
            raise SimulationError(f"unknown partition id {partition_id!r}")

    def is_partitioned(self, src: str, dst: str) -> bool:
        """Whether an active partition separates the two nodes."""
        return any(
            (src in cut) != (dst in cut) for cut in self._partitions.values()
        )

    def set_node_skew(self, name: str, seconds: float) -> None:
        """Add a fixed scheduling offset to every message to/from a node.

        Models a cell whose clock (or scheduler) runs ``seconds`` behind
        its peers': everything it sends and everything it receives lands
        late by the offset.  Pass ``0`` to clear.  The offset is a
        constant, so it never changes how many times the latency model's
        RNG is sampled — skewed runs replay bit-for-bit.
        """
        self._require_node(name)
        if seconds < 0:
            raise SimulationError(f"node skew cannot be negative, got {seconds!r}")
        if seconds == 0:
            self._skews.pop(name, None)
        else:
            self._skews[name] = float(seconds)

    def node_skew(self, name: str) -> float:
        """Current scheduling offset of a node (0 when unskewed)."""
        return self._skews.get(name, 0.0)

    def nodes(self) -> list[str]:
        """Names of all registered nodes."""
        return list(self._nodes)

    def _require_node(self, name: str) -> NodeConfig:
        try:
            return self._nodes[name]
        except KeyError:
            raise SimulationError(f"unknown network node {name!r}") from None

    def _latency_for(self, src: str, dst: str) -> LatencyModel:
        return self._links.get((src, dst), self.default_latency)

    # ------------------------------------------------------------------
    # Message transfer
    # ------------------------------------------------------------------
    def wire_size(self, payload_bytes: int) -> int:
        """Bytes on the wire for a message body of ``payload_bytes``."""
        return payload_bytes + HTTP_FRAMING_BYTES

    def transfer_delay(self, src: str, dst: str, size_bytes: int) -> float:
        """Sampled propagation + transmission delay for one message."""
        sender = self._require_node(src)
        receiver = self._require_node(dst)
        propagation = self._latency_for(src, dst).sample(self.rng)
        bits = size_bytes * 8
        transmission = bits / sender.uplink_bps + bits / receiver.downlink_bps
        skew = self._skews.get(src, 0.0) + self._skews.get(dst, 0.0)
        return propagation + transmission + skew

    def send(self, src: str, dst: str, payload: Any, payload_bytes: int) -> bool:
        """Send ``payload`` from ``src`` to ``dst``.

        Returns True if the message was accepted for delivery, False if the
        destination is offline (the message is silently dropped, as a crashed
        cell would drop it).  Delivery happens after the sampled link delay by
        invoking the destination handler with ``(src, payload, size)``.
        """
        sender = self._require_node(src)
        receiver = self._require_node(dst)
        size = self.wire_size(payload_bytes)
        if not sender.online or not receiver.online:
            self.dropped_messages += 1
            return False
        # A partition drops traffic before any RNG is consumed or any
        # byte is accounted — same replay-neutral position as the
        # offline check above.
        if self._partitions and self.is_partitioned(src, dst):
            self.dropped_messages += 1
            return False
        self.traffic[(src, dst)].record(size)
        delay = self.transfer_delay(src, dst, size)

        def _deliver(_event: Any) -> None:
            # Re-check liveness at delivery time: the receiver may have
            # crashed while the message was in flight.
            if not receiver.online or receiver.handler is None:
                self.dropped_messages += 1
                return
            receiver.handler(src, payload, size)

        self.env.timeout(delay).add_callback(_deliver)
        return True

    # ------------------------------------------------------------------
    # Traffic accounting
    # ------------------------------------------------------------------
    def bytes_between(self, src: str, dst: str) -> int:
        """Total bytes sent on the directed pair ``src`` -> ``dst``."""
        return self.traffic[(src, dst)].bytes

    def messages_between(self, src: str, dst: str) -> int:
        """Messages sent on the directed pair ``src`` -> ``dst``."""
        return self.traffic[(src, dst)].messages

    def messages_among(self, nodes: Iterable[str]) -> int:
        """Messages exchanged between any two distinct nodes of ``nodes``.

        The batching benchmark uses this to count inter-cell traffic: pass
        the cell node names and get the total overlay message count,
        regardless of whether messages were singletons or batches.
        """
        member = set(nodes)
        return sum(
            counter.messages
            for (src, dst), counter in self.traffic.items()
            if src in member and dst in member
        )

    def total_bytes(self) -> int:
        """Total bytes transferred across the whole network."""
        return sum(counter.bytes for counter in self.traffic.values())

    def total_messages(self) -> int:
        """Total messages delivered (accepted for delivery)."""
        return sum(counter.messages for counter in self.traffic.values())

    def reset_traffic(self) -> None:
        """Clear traffic counters (e.g. after a warm-up phase)."""
        self.traffic.clear()
        self.dropped_messages = 0
