"""Deployment orchestration."""

import dataclasses
import inspect

import pytest

from repro.core import BlockumulusCell, ConfigError, DeploymentConfig
from repro.messages import EcdsaSigner, SimulatedSigner
from tests.conftest import make_deployment


def test_deployment_builds_requested_consortium():
    deployment = make_deployment(consortium_size=4)
    assert deployment.consortium_size == 4
    assert len({cell.address for cell in deployment.cells}) == 4
    assert deployment.invariants.consortium_size == 4
    assert deployment.cell(1) is deployment.cells[1]
    assert deployment.cell_by_address(deployment.cells[2].address) is deployment.cells[2]
    with pytest.raises(KeyError):
        deployment.cell_by_address(deployment.make_client_signer("nobody").address)


def test_registry_contract_knows_cell_eth_accounts():
    deployment = make_deployment(consortium_size=3)
    registry = deployment.registry_contract
    assert registry.cells == [key.address for key in deployment.cell_eth_keys]
    assert registry.report_period == int(deployment.config.report_period)


def test_default_contracts_deployed_identically_everywhere():
    deployment = make_deployment()
    names = {tuple(cell.contracts.names()) for cell in deployment.cells}
    assert len(names) == 1
    assert "fastmoney" in deployment.cell(0).contracts.names()
    assert "system.cas" in deployment.cell(0).contracts.names()
    assert "system.deployer" in deployment.cell(0).contracts.names()
    # Instances are independent objects (no shared mutable state).
    assert deployment.cell(0).contracts.get("fastmoney") is not deployment.cell(1).contracts.get("fastmoney")


@pytest.mark.parametrize("shards", [2, 4])
def test_a_plain_deployment_refuses_several_groups(shards):
    with pytest.raises(ConfigError, match="ShardedDeployment"):
        make_deployment(shard_count=shards)


def test_signature_scheme_selection():
    ecdsa_deployment = make_deployment(signature_scheme="ecdsa")
    sim_deployment = make_deployment(signature_scheme="sim", seed=77)
    assert isinstance(ecdsa_deployment.cell_signers[0], EcdsaSigner)
    assert isinstance(sim_deployment.cell_signers[0], SimulatedSigner)
    assert isinstance(sim_deployment.make_client_signer("x"), SimulatedSigner)


def test_cell_eth_accounts_funded():
    deployment = make_deployment()
    for key in deployment.cell_eth_keys:
        assert deployment.eth.get_balance(key.address) > 0


def test_run_cycles_advances_time():
    deployment = make_deployment(report_period=10.0)
    start = deployment.env.now
    deployment.run_cycles(2)
    assert deployment.env.now >= start + 20.0


def test_statistics_shape():
    deployment = make_deployment()
    deployment.run(until=5.0)
    stats = deployment.statistics()
    assert stats["consortium_size"] == 2
    assert len(stats["cells"]) == 2
    assert stats["eth_height"] >= 0
    assert "deployment_id" in stats["invariants"]


def test_deterministic_given_seed():
    a = make_deployment(seed=123)
    b = make_deployment(seed=123)
    assert [cell.address for cell in a.cells] == [cell.address for cell in b.cells]
    assert a.registry_contract.address == b.registry_contract.address


def test_every_cell_reads_its_settings_from_the_config():
    deployment = make_deployment(
        consortium_size=3, batch_quantum=0.05, execution_lanes=4, max_inflight=7,
        auto_report=False, enforce_subscriptions=True,
    )
    for cell in deployment.cells:
        assert cell.service_model is deployment.config.service_model
        assert cell.batcher.quantum == 0.05
        assert cell.lanes.lanes == 4
        assert cell.max_inflight == 7
        assert cell.cycle.auto_report is False
        assert cell.subscriptions.enforce is True
    unbatched = make_deployment(message_batching=False, batch_quantum=0.05)
    assert [cell.batcher.quantum for cell in unbatched.cells] == [None, None]


def test_the_cell_declares_no_setting_of_its_own():
    """A setting is declared once, on the config the cell is built from."""
    settings = {field.name for field in dataclasses.fields(DeploymentConfig)}
    parameters = set(inspect.signature(BlockumulusCell.__init__).parameters)
    assert parameters & settings == set()
