"""System bContracts pre-deployed on every Blockumulus cell."""

from ..registry import ContractRegistry
from .cas import ContentAddressableStorage
from .deployer import CommunityDeployer

__all__ = ["CommunityDeployer", "ContentAddressableStorage", "install_system_contracts"]


def install_system_contracts(registry: ContractRegistry) -> None:
    """Register fresh system contracts, the deployer deploying into ``registry``."""
    cas = ContentAddressableStorage(ContentAddressableStorage.DEFAULT_NAME)
    deployer = CommunityDeployer(CommunityDeployer.DEFAULT_NAME)
    deployer.bind(registry.register, registry.remove)
    registry.register(cas)
    registry.register(deployer)
