"""Ethereum node mining process and the web3-like provider."""

import pytest

from repro.crypto.keys import PrivateKey
from repro.ethchain import Blockchain, ERC20Token, EthereumNode, Web3Provider
from repro.sim import Environment, SeedSequence


@pytest.fixture
def node_setup():
    env = Environment()
    node = EthereumNode(env, SeedSequence(11).stream("eth"))
    provider = Web3Provider(node)
    key = PrivateKey.from_seed("node-user")
    node.chain.fund(key.address, 10 ** 21)
    return env, node, provider, key


def test_mining_process_produces_blocks(node_setup):
    env, node, provider, key = node_setup
    env.run(until=120)
    assert node.chain.height >= 3


def test_transfer_is_mined_and_receipt_delivered(node_setup):
    env, node, provider, key = node_setup
    recipient = PrivateKey.from_seed("node-recipient").address
    tx_hash = provider.transfer(key, recipient, 10 ** 18)
    event = provider.wait_for_receipt(tx_hash)
    receipt = env.run(event)
    assert receipt.success
    assert provider.get_balance(recipient) == 10 ** 18


def test_nonce_tracking_includes_pending(node_setup):
    env, node, provider, key = node_setup
    recipient = PrivateKey.from_seed("node-recipient").address
    assert provider.get_nonce(key.address) == 0
    provider.transfer(key, recipient, 1)
    assert provider.get_nonce(key.address) == 1
    provider.transfer(key, recipient, 1)
    assert provider.get_nonce(key.address) == 2
    env.run(until=env.now + 60)
    assert provider.get_nonce(key.address) == 2
    assert node.chain.state.nonce_of(key.address) == 2


def test_contract_transact_and_view(node_setup):
    env, node, provider, key = node_setup
    token_address = Blockchain.contract_address_for(key.address, "provider-token")
    node.chain.deploy_contract(ERC20Token(token_address, name="T", symbol="T"))
    event = provider.transact_and_wait(
        key, token_address, "mint", {"to": key.address.hex(), "amount": 77}
    )
    receipt = env.run(event)
    assert receipt.success
    assert provider.call(token_address, "balance_of", key.address) == 77


def test_wait_for_already_mined_receipt(node_setup):
    env, node, provider, key = node_setup
    recipient = PrivateKey.from_seed("r2").address
    tx_hash = provider.transfer(key, recipient, 1)
    node.mine_block()
    event = provider.wait_for_receipt(tx_hash)
    assert event.triggered
    assert env.run(event).success


def test_block_number_reporting(node_setup):
    env, node, provider, key = node_setup
    before = provider.block_number()
    node.mine_block()
    assert provider.block_number() == before + 1
