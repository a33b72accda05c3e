"""Gossip propagation and a Nakamoto-style blockchain baseline.

This substrate quantifies Observation 2 of the paper: unstructured P2P
networks pay a high price in propagation latency and per-block capacity.
It provides two pieces:

* :class:`GossipSimulator` — breadth-first gossip of a message over a random
  topology with per-hop latency and a per-node relay (validation) delay;
  reports the time until any given fraction of the network has the message.
* :class:`NakamotoChainModel` — a closed-form model of a PoW chain on top
  of that gossip layer: block interval, block capacity, confirmation depth,
  stale-block rate estimated from the propagation delay.  This is the
  "public blockchain" column against which the Blockumulus measurements are
  compared in the baseline benchmark (E9).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from ..sim.latency import LatencyModel, LogNormalLatency
from .topology import Topology, random_regularish_topology


@dataclass(frozen=True)
class PropagationResult:
    """Delivery times of one gossiped message."""

    delivery_times: dict[int, float]

    def coverage_time(self, fraction: float) -> float:
        """Seconds until ``fraction`` of all nodes have received the message."""
        if not (0.0 < fraction <= 1.0):
            raise ValueError("fraction must be in (0, 1]")
        times = sorted(self.delivery_times.values())
        index = max(0, math.ceil(fraction * len(times)) - 1)
        return times[index]

    @property
    def full_coverage_time(self) -> float:
        """Time until every node has the message."""
        return self.coverage_time(1.0)


class GossipSimulator:
    """Breadth-first gossip over a random unstructured topology."""

    #: One-way latency of a P2P link.
    LINK_LATENCY: LatencyModel = LogNormalLatency(median=0.12, sigma=0.6, floor=0.02)
    #: Seconds a node spends validating a message before relaying it.
    RELAY_DELAY = 0.05

    def __init__(
        self,
        node_count: int = 1_000,
        degree: int = 8,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.rng = rng or random.Random(2021)
        self.topology: Topology = random_regularish_topology(node_count, degree, self.rng)

    def propagate(self, origin: int = 0) -> PropagationResult:
        """Gossip one message from ``origin`` and record delivery times.

        Implemented as a Dijkstra-style earliest-delivery computation where
        each edge weight is a fresh latency sample plus the relay delay of
        the forwarding node — equivalent to simulating the flood explicitly
        but much faster for thousand-node networks.
        """
        import heapq

        adjacency = self.topology.adjacency()
        delivery: dict[int, float] = {}
        queue: list[tuple[float, int]] = [(0.0, origin)]
        while queue:
            time_now, node = heapq.heappop(queue)
            if node in delivery:
                continue
            delivery[node] = time_now
            for peer in adjacency[node]:
                if peer in delivery:
                    continue
                edge_delay = self.LINK_LATENCY.sample(self.rng) + self.RELAY_DELAY
                heapq.heappush(queue, (time_now + edge_delay, peer))
        return PropagationResult(delivery_times=delivery)


@dataclass
class NakamotoChainModel:
    """Closed-form throughput/latency/stale-rate model of a PoW chain."""

    #: Average seconds between blocks (Bitcoin: 600, Ethereum ~13).
    block_interval: float = 13.0
    #: Transactions that fit in one block (gas / block-size limited).
    transactions_per_block: int = 150
    #: Confirmation depth considered final.
    confirmation_depth: int = 12
    #: Time for a block to reach most of the network (from GossipSimulator).
    propagation_delay: float = 2.0

    def throughput_tps(self) -> float:
        """Sustained transactions per second."""
        return self.transactions_per_block / self.block_interval

    def expected_confirmation_latency(self) -> float:
        """Expected seconds until a transaction is final.

        Waiting for inclusion averages half a block interval; finality then
        needs ``confirmation_depth`` further blocks.
        """
        return self.block_interval / 2 + self.confirmation_depth * self.block_interval

    def stale_rate(self) -> float:
        """Fraction of blocks orphaned because of propagation delay.

        Uses the classical approximation 1 - exp(-d/T) where d is the
        propagation delay and T the block interval — the quantity that
        forces public chains to keep blocks small and intervals long.
        """
        return 1.0 - math.exp(-self.propagation_delay / self.block_interval)

    def effective_throughput_tps(self) -> float:
        """Throughput discounted by the stale rate."""
        return self.throughput_tps() * (1.0 - self.stale_rate())
