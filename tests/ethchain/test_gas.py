"""Gas schedule, meter, and fee arithmetic."""

import pytest

from repro.ethchain.gas import (
    FeeSchedule,
    GasMeter,
    OutOfGasError,
    TX_BASE_GAS,
    intrinsic_gas,
    keccak_gas,
    log_gas,
)


def test_intrinsic_gas_empty_calldata():
    assert intrinsic_gas(b"") == TX_BASE_GAS


def test_intrinsic_gas_counts_zero_and_nonzero_bytes():
    assert intrinsic_gas(b"\x00" * 10) == TX_BASE_GAS + 40
    assert intrinsic_gas(b"\x01" * 10) == TX_BASE_GAS + 160
    assert intrinsic_gas(b"\x00\x01") == TX_BASE_GAS + 20


def test_intrinsic_gas_create_surcharge():
    assert intrinsic_gas(b"", is_create=True) == TX_BASE_GAS + 32_000


def test_keccak_gas_per_word():
    assert keccak_gas(0) == 30
    assert keccak_gas(32) == 36
    assert keccak_gas(33) == 42


def test_log_gas():
    assert log_gas(topics=1, data_length=10) == 375 + 375 + 80


def test_meter_charges():
    meter = GasMeter(100_000)
    meter.charge(21_000)
    assert meter.gas_used == 21_000


def test_meter_out_of_gas():
    meter = GasMeter(1_000)
    with pytest.raises(OutOfGasError):
        meter.charge(2_000)
    assert meter.gas_used == 1_000


def test_meter_rejects_negative_charge():
    with pytest.raises(ValueError):
        GasMeter(10).charge(-1)


def test_fee_schedule_conversions():
    schedule = FeeSchedule(gas_price_gwei=22.0, ether_price_usd=733.0)
    assert schedule.gas_price_wei() == 22 * 10 ** 9
    assert schedule.gas_to_ether(1_000_000) == pytest.approx(0.022)
    assert schedule.gas_to_usd(1_000_000) == pytest.approx(0.022 * 733)
