"""System invariants and deployment configuration validation."""

import pytest

from repro.core.config import ConfigError, DeploymentConfig, SystemInvariants
from repro.crypto.keys import PrivateKey

CELLS = tuple(PrivateKey.from_seed(f"cfg-cell-{i}").address for i in range(3))


def make_invariants(**overrides):
    fields = dict(
        deployment_id="dep",
        cell_addresses=CELLS,
        report_period=600.0,
        initial_timestamp=0.0,
        forwarding_deadline=10.0,
        miss_threshold=5,
    )
    fields.update(overrides)
    return SystemInvariants(**fields)


def test_valid_invariants():
    invariants = make_invariants()
    assert invariants.consortium_size == 3
    assert invariants.is_cell(CELLS[0])
    assert not invariants.is_cell(PrivateKey.from_seed("outsider").address)


def test_invariants_validation():
    with pytest.raises(ConfigError):
        make_invariants(deployment_id="")
    with pytest.raises(ConfigError):
        make_invariants(cell_addresses=())
    with pytest.raises(ConfigError):
        make_invariants(cell_addresses=(CELLS[0], CELLS[0]))
    with pytest.raises(ConfigError):
        make_invariants(report_period=0)
    with pytest.raises(ConfigError):
        make_invariants(forwarding_deadline=0)
    with pytest.raises(ConfigError):
        make_invariants(miss_threshold=0)


def test_deployment_config_defaults_are_valid():
    config = DeploymentConfig()
    assert config.consortium_size == 2


def test_deployment_config_validation():
    with pytest.raises(ConfigError):
        DeploymentConfig(consortium_size=0)
    with pytest.raises(ConfigError):
        DeploymentConfig(signature_scheme="rsa")
    with pytest.raises(ConfigError):
        DeploymentConfig(report_period=-5)


def test_make_invariants_freezes_cells():
    config = DeploymentConfig(consortium_size=3, report_period=120.0)
    invariants = config.make_invariants(list(CELLS), t0=10.0)
    assert invariants.cell_addresses == CELLS
    assert invariants.report_period == 120.0
    assert invariants.initial_timestamp == 10.0
