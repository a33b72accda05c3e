"""Latency models and cell service profiles."""

import random

import pytest

from repro.sim.latency import (
    CellServiceModel,
    ConstantLatency,
    LogNormalLatency,
    UniformLatency,
    azure_b1ms_service_model,
    fast_test_service_model,
    wan_cell_to_cell,
    wan_client_to_cell,
)


@pytest.fixture
def rng():
    return random.Random(7)


def test_constant_latency(rng):
    model = ConstantLatency(0.25)
    assert model.sample(rng) == 0.25
    assert model.mean() == 0.25


def test_constant_latency_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-1)


def test_uniform_latency_bounds(rng):
    model = UniformLatency(0.1, 0.2)
    samples = [model.sample(rng) for _ in range(200)]
    assert all(0.1 <= value <= 0.2 for value in samples)
    assert model.mean() == pytest.approx(0.15)


def test_uniform_latency_validation():
    with pytest.raises(ValueError):
        UniformLatency(0.5, 0.1)


def test_lognormal_floor_and_median(rng):
    model = LogNormalLatency(median=0.1, sigma=0.5, floor=0.05)
    samples = sorted(model.sample(rng) for _ in range(2000))
    assert all(value >= 0.05 for value in samples)
    median = samples[len(samples) // 2]
    assert median == pytest.approx(0.1, rel=0.2)
    assert model.mean() >= 0.1


def test_lognormal_validation():
    with pytest.raises(ValueError):
        LogNormalLatency(median=0)


def test_service_model_cpu_accounting():
    model = CellServiceModel()
    assert model.service_cpu_per_transaction(1) == model.invoke_cpu
    extra = model.service_cpu_per_transaction(8) - model.service_cpu_per_transaction(2)
    assert extra == pytest.approx(6 * model.forward_cpu_per_cell)


def test_service_model_validation():
    with pytest.raises(ValueError):
        CellServiceModel(cpu_workers=0)
    with pytest.raises(ValueError):
        CellServiceModel(invoke_cpu=-1)
    with pytest.raises(ValueError):
        CellServiceModel().service_cpu_per_transaction(0)


def test_profiles_are_reasonable(rng):
    assert wan_client_to_cell().mean() > wan_cell_to_cell().mean() / 10
    fast = fast_test_service_model()
    azure = azure_b1ms_service_model()
    assert fast.invoke_overhead.sample(rng) < azure.invoke_overhead.sample(rng)
    assert fast.invoke_cpu < azure.invoke_cpu
