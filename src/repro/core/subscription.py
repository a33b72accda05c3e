"""Client access subscriptions and pricing (Section III-B4).

Blockumulus is permissionless for clients, but — like the ISP model — a
client buys access through one of the cells, which charges for transferred
data or active time rather than per-transaction fees.  Every cell here
charges by the one :class:`PricingPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..crypto.keys import Address


class SubscriptionError(Exception):
    """Raised when a client without a valid subscription submits work."""


class PricingPolicy:
    """Every cell's access pricing: constants, as no deployment prices differently."""

    #: Price per megabyte of client traffic (both directions).
    price_per_mbyte = 0.05
    #: Price per hour of active subscription time.
    price_per_hour = 0.0
    #: One-time activation fee.
    activation_fee = 0.0

    def traffic_cost(self, transferred_bytes: int) -> float:
        """Cost of ``transferred_bytes`` of client traffic."""
        return self.price_per_mbyte * transferred_bytes / 1_000_000

    def time_cost(self, active_seconds: float) -> float:
        """Cost of ``active_seconds`` of subscription time."""
        return self.price_per_hour * active_seconds / 3600.0


@dataclass
class Subscription:
    """One client's subscription with a cell."""

    client: Address
    opened_at: float
    policy: PricingPolicy
    transferred_bytes: int = 0
    transactions: int = 0
    closed_at: Optional[float] = None

    @property
    def is_active(self) -> bool:
        """Whether the subscription is currently open."""
        return self.closed_at is None

    def record_traffic(self, size_bytes: int) -> None:
        """Account client traffic against the subscription."""
        self.transferred_bytes += size_bytes

    def record_transaction(self) -> None:
        """Count a served transaction."""
        self.transactions += 1

    def bill(self, now: float) -> float:
        """Total charge accrued so far."""
        active_until = self.closed_at if self.closed_at is not None else now
        return (
            self.policy.activation_fee
            + self.policy.traffic_cost(self.transferred_bytes)
            + self.policy.time_cost(max(0.0, active_until - self.opened_at))
        )


class SubscriptionManager:
    """Tracks all subscriptions held with one cell."""

    def __init__(self, enforce: bool = True) -> None:
        self.policy = PricingPolicy()
        self.enforce = enforce
        self._subscriptions: dict[Address, Subscription] = {}

    def subscribe(self, client: Address, now: float) -> Subscription:
        """Open (or return the existing) subscription for ``client``."""
        existing = self._subscriptions.get(client)
        if existing is not None and existing.is_active:
            return existing
        subscription = Subscription(client=client, opened_at=now, policy=self.policy)
        self._subscriptions[client] = subscription
        return subscription

    def unsubscribe(self, client: Address, now: float) -> Subscription:
        """Close a client's subscription."""
        subscription = self._require(client)
        subscription.closed_at = now
        return subscription

    def is_subscribed(self, client: Address) -> bool:
        """Whether ``client`` currently holds an active subscription."""
        subscription = self._subscriptions.get(client)
        return subscription is not None and subscription.is_active

    def check_access(self, client: Address) -> None:
        """Raise unless the client may submit transactions through this cell."""
        if self.enforce and not self.is_subscribed(client):
            raise SubscriptionError(
                f"{client.hex()} has no active subscription with this cell"
            )

    def record_traffic(self, client: Address, size_bytes: int) -> None:
        """Attribute traffic to the client's subscription (if any)."""
        subscription = self._subscriptions.get(client)
        if subscription is not None and subscription.is_active:
            subscription.record_traffic(size_bytes)

    def record_transaction(self, client: Address) -> None:
        """Attribute one transaction to the client's subscription (if any)."""
        subscription = self._subscriptions.get(client)
        if subscription is not None and subscription.is_active:
            subscription.record_transaction()

    def bill(self, client: Address, now: float) -> float:
        """Current bill of ``client``."""
        return self._require(client).bill(now)

    def subscribers(self) -> list[Address]:
        """Addresses of all clients with an active subscription."""
        return [
            client
            for client, subscription in self._subscriptions.items()
            if subscription.is_active
        ]

    def _require(self, client: Address) -> Subscription:
        try:
            return self._subscriptions[client]
        except KeyError:
            raise SubscriptionError(f"{client.hex()} never subscribed with this cell") from None
