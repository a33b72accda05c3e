"""The shard map, sharded deployment construction, and the shard digest."""

import pytest

from repro.contracts.community import FastMoney
from repro.core import DeploymentConfig, ShardMap, ShardingError, chain_shard_digest
from repro.core.lanes import AccessFootprint
from repro.core.sharding import NAMESPACE_SHARDED_CONTRACTS, _stable_shard
from tests.conftest import make_deployment, make_sharded_deployment


# ----------------------------------------------------------------------
# ShardMap
# ----------------------------------------------------------------------
def test_every_contract_maps_to_exactly_one_group():
    shard_map = ShardMap(4)
    for name in ("fastmoney", "ballot", "dividendpool", "anything.else", "x"):
        groups = {shard_map.shard_of_contract(name) for _ in range(5)}
        assert len(groups) == 1
        assert 0 <= groups.pop() < 4


def test_shard_assignment_is_stable_across_maps():
    assert ShardMap(8).shard_of_contract("fastmoney") == ShardMap(8).shard_of_contract(
        "fastmoney"
    )
    assert _stable_shard("contract/fastmoney", 8) == ShardMap(8).shard_of_contract("fastmoney")


def test_pins_override_the_hash_assignment():
    shard_map = ShardMap(4)
    hashed = shard_map.shard_of_contract("fastmoney@s2")
    shard_map.pin("fastmoney@s2", (hashed + 1) % 4)
    assert shard_map.shard_of_contract("fastmoney@s2") == (hashed + 1) % 4
    with pytest.raises(ShardingError):
        shard_map.pin("fastmoney@s2", 4)
    with pytest.raises(ShardingError):
        shard_map.pin("", 0)


def test_invalid_maps_and_names_are_rejected():
    with pytest.raises(ShardingError):
        ShardMap(0)
    with pytest.raises(ShardingError):
        ShardMap(2).shard_of_contract("")
    with pytest.raises(ShardingError):
        ShardMap(2).shard_of_cas_key("")


def test_cas_calls_route_by_blob_digest():
    shard_map = ShardMap(4)
    content = b"hello sharding"
    from repro.contracts.system.cas import ContentAddressableStorage

    digest = ContentAddressableStorage.content_hash(content)
    by_put = shard_map.route_call(
        "system.cas", "put", {"content_hex": "0x" + content.hex()}
    )
    by_digest = shard_map.route_call("system.cas", "release", {"digest": digest})
    assert by_put == by_digest == shard_map.shard_of_cas_key(digest)
    with pytest.raises(ShardingError):
        shard_map.route_call("system.cas", "release", {})
    with pytest.raises(ShardingError):
        shard_map.route_call("system.cas", "put", {"content_hex": "0xzz"})


def test_deployer_routes_by_the_deployed_contract_name():
    shard_map = ShardMap(4)
    assert shard_map.route_call(
        "system.deployer", "deploy", {"name": "mytoken"}
    ) == shard_map.shard_of_contract("mytoken")
    with pytest.raises(ShardingError):
        shard_map.route_call("system.deployer", "deploy", {})


def test_groups_for_footprint_spans_and_exclusive():
    shard_map = ShardMap(4)
    footprint = AccessFootprint(
        reads=frozenset({("a", "k1")}),
        writes=frozenset({("b", "k2")}),
        deltas=frozenset({("c", "k3")}),
    )
    groups = shard_map.groups_for_footprint(footprint)
    assert groups == frozenset(
        shard_map.shard_of_contract(name) for name in ("a", "b", "c")
    )
    assert shard_map.groups_for_footprint(AccessFootprint.exclusive_footprint()) is None


# ----------------------------------------------------------------------
# chain_shard_digest
# ----------------------------------------------------------------------
def test_shard_digest_chains_and_detects_any_change():
    history = [["0xaa", "0xbb"], ["0xcc", "0xdd"]]
    digest = chain_shard_digest("dep", 2, history)
    assert digest.startswith("0x") and len(digest) == 66
    assert chain_shard_digest("dep", 2, history) == digest
    # Any perturbation — a fingerprint, the order, the cycle count, the
    # deployment id — changes the digest.
    assert chain_shard_digest("dep", 2, [["0xaa", "0xbb"], ["0xcc", "0xee"]]) != digest
    assert chain_shard_digest("dep", 2, [["0xbb", "0xaa"], ["0xcc", "0xdd"]]) != digest
    assert chain_shard_digest("dep", 2, history[:1]) != digest
    assert chain_shard_digest("other", 2, history) != digest


def test_shard_digest_requires_one_fingerprint_per_group():
    with pytest.raises(ShardingError):
        chain_shard_digest("dep", 2, [["0xaa"]])


# ----------------------------------------------------------------------
# ShardedDeployment construction
# ----------------------------------------------------------------------
def test_single_shard_is_the_plain_deployment_by_the_same_construction_path():
    deployment = make_sharded_deployment(1)
    assert deployment.shard_count == 1
    group = deployment.group(0)
    assert group.index == 0
    assert group.config.deployment_id == deployment.config.deployment_id
    assert group.config.seed == deployment.config.seed
    assert [cell.node_name for cell in group.cells] == ["cell-0", "cell-1"]
    plain = make_deployment()
    assert plain.index == 0
    assert [cell.node_name for cell in plain.cells] == ["cell-0", "cell-1"]
    assert [cell.address for cell in group.cells] == [cell.address for cell in plain.cells]
    assert group.registry_contract.address == plain.registry_contract.address
    # The default contracts are all recorded as owned by group 0.
    assert set(deployment.contract_locations) == {"fastmoney", "ballot", "dividendpool"}
    assert set(deployment.contract_locations.values()) == {0}


def test_view_over_a_plain_consortium_builds_nothing_and_sees_earlier_deployments():
    plain = make_deployment()
    view = plain.as_sharded()
    assert view.as_sharded() is view
    assert view.shard_count == 1 and view.group(0) is plain
    assert (view.config, view.env, view.network, view.metrics, view.eth_node) == (
        plain.config, plain.env, plain.network, plain.metrics, plain.eth_node
    )
    assert set(view.contract_locations) == {"fastmoney", "ballot", "dividendpool"}
    # The cells are not reshaped: a plain consortium keeps refusing XSHARD traffic.
    assert all(cell.gateway is None for cell in plain.cells)
    # A contract deployed through one view is routable through the next.
    view.deploy_contract_instances([FastMoney("fastmoney.later")])
    later = plain.as_sharded()
    assert later is not view
    assert later.group_of_contract("fastmoney.later").index == 0
    assert later.shard_map.route_call("fastmoney.later", "transfer", {}) == 0


def test_multi_shard_groups_are_namespaced_and_disjoint():
    deployment = make_sharded_deployment(3)
    assert deployment.shard_count == 3
    names = [cell.node_name for group in deployment.groups for cell in group.cells]
    assert len(names) == len(set(names)) == 6
    assert [[cell.node_name for cell in group.cells] for group in deployment.groups] == [
        [f"g{g}/cell-0", f"g{g}/cell-1"] for g in range(3)
    ]
    assert [group.index for group in deployment.groups] == [0, 1, 2]
    assert [group.config.deployment_id for group in deployment.groups] == [
        f"{deployment.config.deployment_id}/g{g}" for g in range(3)
    ]
    assert [group.config.seed for group in deployment.groups] == [
        deployment.config.seed + g for g in range(3)
    ]
    # Every default community contract lives on exactly one group, where
    # it is actually deployed; the other groups do not carry it.
    for name, owner in deployment.contract_locations.items():
        for group in deployment.groups:
            deployed = group.cells[0].contracts.contains(name)
            assert deployed == (group.index == owner)
    # All groups share one environment, network, and anchor chain.
    assert len({id(group.env) for group in deployment.groups}) == 1
    assert len({id(group.network) for group in deployment.groups}) == 1
    assert len({id(group.eth_node) for group in deployment.groups}) == 1


def test_shard_directory_is_installed_on_every_cell():
    deployment = make_sharded_deployment(2)
    for group in deployment.groups:
        for cell in group.cells:
            assert cell.shard_group == group.index


def test_group_of_contract_errors():
    deployment = make_sharded_deployment(2)
    with pytest.raises(ShardingError):
        deployment.group_of_contract("nope")
    for name in NAMESPACE_SHARDED_CONTRACTS:
        with pytest.raises(ShardingError):
            deployment.group_of_contract(name)


def test_deploy_contract_instances_pins_explicit_groups():
    deployment = make_sharded_deployment(2)
    placements = deployment.deploy_contract_instances(
        [FastMoney("fastmoney@s1")], group=1
    )
    assert placements == {"fastmoney@s1": 1}
    assert deployment.group(1).cells[0].contracts.contains("fastmoney@s1")
    assert not deployment.group(0).cells[0].contracts.contains("fastmoney@s1")
    assert deployment.shard_map.shard_of_contract("fastmoney@s1") == 1


def test_shard_count_validation():
    with pytest.raises(Exception):
        DeploymentConfig(shard_count=0)


def test_group_fingerprints_and_digest_agree_after_a_quiet_cycle():
    deployment = make_sharded_deployment(2)
    deployment.run_cycles(1)
    fingerprints = deployment.group_cycle_fingerprints(0)
    assert len(fingerprints) == 2
    digest = deployment.shard_digest(0)
    assert digest == chain_shard_digest(
        deployment.config.deployment_id, 2, [fingerprints]
    )
    with pytest.raises(ShardingError):
        deployment.shard_digest(-1)


def test_sharded_auditor_verifies_against_a_published_digest():
    from repro.audit import ShardedAuditor

    deployment = make_sharded_deployment(2)
    deployment.run_cycles(1)
    auditor = ShardedAuditor(deployment)
    published = deployment.shard_digest(0)
    report = auditor.verify_shard_digest(0, published=published)
    assert report.passed and report.details == published
    mismatch = auditor.verify_shard_digest(0, published="0x" + "00" * 32)
    assert not mismatch.passed
    assert mismatch.findings[0].kind == "shard_digest_mismatch"
