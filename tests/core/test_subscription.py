"""Client subscriptions and pricing."""

import pytest

from repro.core.subscription import (
    PricingPolicy,
    SubscriptionError,
    SubscriptionManager,
)
from repro.crypto.keys import PrivateKey

CLIENT = PrivateKey.from_seed("sub-client").address
OTHER = PrivateKey.from_seed("sub-other").address


def _price(monkeypatch, **prices):
    """Every cell's pricing, at other prices for one test."""
    for name, value in prices.items():
        monkeypatch.setattr(PricingPolicy, name, value)


def test_pricing_policy_costs(monkeypatch):
    _price(monkeypatch, price_per_mbyte=0.10, price_per_hour=0.5, activation_fee=1.0)
    policy = PricingPolicy()
    assert policy.traffic_cost(2_000_000) == pytest.approx(0.2)
    assert policy.time_cost(1_800) == pytest.approx(0.25)


def test_subscribe_and_access():
    manager = SubscriptionManager(enforce=True)
    with pytest.raises(SubscriptionError):
        manager.check_access(CLIENT)
    manager.subscribe(CLIENT, now=0.0)
    manager.check_access(CLIENT)
    assert manager.is_subscribed(CLIENT)
    assert manager.subscribers() == [CLIENT]


def test_subscribe_is_idempotent():
    manager = SubscriptionManager()
    first = manager.subscribe(CLIENT, now=0.0)
    second = manager.subscribe(CLIENT, now=5.0)
    assert first is second


def test_enforcement_can_be_disabled():
    manager = SubscriptionManager(enforce=False)
    manager.check_access(CLIENT)  # must not raise


def test_unsubscribe_closes_access():
    manager = SubscriptionManager(enforce=True)
    manager.subscribe(CLIENT, now=0.0)
    manager.unsubscribe(CLIENT, now=10.0)
    assert not manager.is_subscribed(CLIENT)
    with pytest.raises(SubscriptionError):
        manager.check_access(CLIENT)


def test_unsubscribe_unknown_client_rejected():
    with pytest.raises(SubscriptionError):
        SubscriptionManager().unsubscribe(CLIENT, now=1.0)


def test_billing_accumulates_traffic_and_time(monkeypatch):
    _price(monkeypatch, price_per_mbyte=1.0, price_per_hour=3.6, activation_fee=2.0)
    manager = SubscriptionManager(enforce=True)
    manager.subscribe(CLIENT, now=0.0)
    manager.record_traffic(CLIENT, 500_000)
    manager.record_traffic(CLIENT, 500_000)
    manager.record_transaction(CLIENT)
    bill = manager.bill(CLIENT, now=3_600.0)
    # 2.0 activation + 1.0 traffic + 3.6 for one hour.
    assert bill == pytest.approx(6.6)


def test_traffic_for_unknown_client_is_ignored():
    manager = SubscriptionManager()
    manager.record_traffic(OTHER, 1_000)
    manager.record_transaction(OTHER)
    with pytest.raises(SubscriptionError):
        manager.bill(OTHER, now=1.0)


def test_billing_stops_at_close_time(monkeypatch):
    _price(monkeypatch, price_per_hour=1.0)
    manager = SubscriptionManager()
    manager.subscribe(CLIENT, now=0.0)
    manager.unsubscribe(CLIENT, now=3_600.0)
    assert manager.bill(CLIENT, now=7_200.0) == pytest.approx(1.0)
