"""The SnapshotRegistry anchor contract."""

import pytest

from repro.crypto.keys import PrivateKey
from repro.ethchain import (
    Blockchain,
    EthereumNode,
    SnapshotRegistry,
    Web3Provider,
)
from repro.sim import Environment, SeedSequence

FP_A = "0x" + "aa" * 32
FP_B = "0x" + "bb" * 32


@pytest.fixture
def setup():
    env = Environment()
    node = EthereumNode(env, SeedSequence(5).stream("eth"), auto_mine=False)
    provider = Web3Provider(node)
    cells = [PrivateKey.from_seed(f"reg-cell-{i}") for i in range(3)]
    outsider = PrivateKey.from_seed("reg-outsider")
    for key in cells + [outsider]:
        node.chain.fund(key.address, 10 ** 21)
    address = Blockchain.contract_address_for(cells[0].address, "registry")
    registry = SnapshotRegistry(
        address, "test-deployment", [k.address for k in cells],
        report_period=600, initial_timestamp=0,
    )
    node.chain.deploy_contract(registry)
    return env, node, provider, registry, cells, outsider


def report(provider, node, env, key, registry, cycle, fingerprint):
    event = provider.transact_and_wait(key, registry.address, "report",
                                       {"cycle": cycle, "fingerprint": fingerprint})
    node.mine_block()
    env.run()
    return event.value


def test_cell_can_report_and_value_is_stored(setup):
    env, node, provider, registry, cells, _ = setup
    receipt = report(provider, node, env, cells[0], registry, 0, FP_A)
    assert receipt.success
    stored = registry.get_report(node.chain.state, 0, cells[0].address)
    assert stored.hex() == "aa" * 32


def test_repeated_report_for_same_cycle_reverts(setup):
    env, node, provider, registry, cells, _ = setup
    assert report(provider, node, env, cells[0], registry, 1, FP_A).success
    second = report(provider, node, env, cells[0], registry, 1, FP_B)
    assert not second.success and "already reported" in second.error
    assert registry.get_report(node.chain.state, 1, cells[0].address).hex() == "aa" * 32


def test_non_cell_cannot_report(setup):
    env, node, provider, registry, cells, outsider = setup
    receipt = report(provider, node, env, outsider, registry, 0, FP_A)
    assert not receipt.success and "not a registered cell" in receipt.error


def test_cells_report_independently(setup):
    env, node, provider, registry, cells, _ = setup
    report(provider, node, env, cells[0], registry, 4, FP_A)
    report(provider, node, env, cells[1], registry, 4, FP_B)
    state = node.chain.state
    assert registry.get_report(state, 4, cells[0].address).hex() == "aa" * 32
    assert registry.get_report(state, 4, cells[1].address).hex() == "bb" * 32


def test_malformed_fingerprint_rejected(setup):
    env, node, provider, registry, cells, _ = setup
    receipt = report(provider, node, env, cells[0], registry, 0, "0x1234")
    assert not receipt.success


def test_report_gas_close_to_paper_value(setup):
    env, node, provider, registry, cells, _ = setup
    receipt = report(provider, node, env, cells[0], registry, 0, FP_A)
    # The paper's Table III implies 49,193 gas per report; the reproduction
    # must land within 10% of that figure for the cost table to be valid.
    assert abs(receipt.gas_used - 49_193) / 49_193 < 0.10


def test_contingency_submission_and_listing(setup):
    env, node, provider, registry, cells, outsider = setup
    payload = {"payload": {"data": {"contract": "fastmoney"}}, "signature": "0x" + "00" * 65}
    event = provider.transact_and_wait(outsider, registry.address, "submit_contingency",
                                       {"transaction": payload})
    node.mine_block()
    env.run()
    assert event.value.success
    assert registry.contingency_count(node.chain.state) == 1
    stored = registry.get_contingency(node.chain.state, 0)
    assert stored["payload"]["data"]["contract"] == "fastmoney"
    assert registry.all_contingencies(node.chain.state) == [stored]


def test_constructor_validation():
    with pytest.raises(ValueError):
        SnapshotRegistry(PrivateKey.from_seed("x").address, "d", [], 600, 0)
    with pytest.raises(ValueError):
        SnapshotRegistry(
            PrivateKey.from_seed("x").address, "d",
            [PrivateKey.from_seed("c").address], 0, 0,
        )
