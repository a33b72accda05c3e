"""Per-cell contract registry and exclusion handling."""

import pytest

from repro.contracts import (
    BContractError,
    ContentAddressableStorage,
    ContractRegistry,
    FastMoney,
    RegistryError,
)


@pytest.fixture
def registry():
    reg = ContractRegistry()
    reg.register(ContentAddressableStorage("system.cas"))
    reg.register(FastMoney("fastmoney"))
    return reg


def test_register_and_get(registry):
    assert registry.contains("fastmoney")
    assert registry.get("fastmoney").name == "fastmoney"
    assert registry.names() == ["fastmoney", "system.cas"]
    assert len(registry) == 2


def test_duplicate_registration_rejected(registry):
    with pytest.raises(RegistryError):
        registry.register(FastMoney("fastmoney"))


def test_missing_contract_raises(registry):
    with pytest.raises(BContractError):
        registry.get("ghost")


def test_remove_community_contract(registry):
    registry.remove("fastmoney")
    assert not registry.contains("fastmoney")


def test_system_contract_cannot_be_removed(registry):
    with pytest.raises(RegistryError):
        registry.remove("system.cas")


def test_exclusion_lifecycle(registry):
    registry.exclude("fastmoney")
    assert registry.is_excluded("fastmoney")
    assert registry.excluded() == ["fastmoney"]
    assert "fastmoney" not in registry.fingerprints()
    assert "fastmoney" in registry.fingerprints(include_excluded=True)
    registry.include("fastmoney")
    assert not registry.is_excluded("fastmoney")


def test_exclude_unknown_contract_rejected(registry):
    with pytest.raises(RegistryError):
        registry.exclude("ghost")


def test_fingerprints_cover_all_contracts(registry):
    fingerprints = registry.fingerprints()
    assert set(fingerprints) == {"fastmoney", "system.cas"}
    assert all(len(digest) == 32 for digest in fingerprints.values())


def test_describe(registry):
    described = registry.describe()
    assert {item["name"] for item in described} == {"fastmoney", "system.cas"}


def test_iteration_is_sorted(registry):
    assert [contract.name for contract in registry] == ["fastmoney", "system.cas"]
