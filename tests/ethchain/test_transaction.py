"""Ethereum-style transactions: signing, hashing, calldata, validation."""

from unittest import mock

import pytest

from repro.crypto.keccak import keccak256
from repro.crypto.keys import PrivateKey
from repro.ethchain import block as block_module
from repro.ethchain import transaction as transaction_module
from repro.ethchain.block import build_block
from repro.ethchain.transaction import (
    EthTransaction,
    TransactionError,
    decode_call_data,
    encode_call_data,
)

KEY = PrivateKey.from_seed("eth-tx-tests")
OTHER = PrivateKey.from_seed("other")


def make_transfer(nonce=0, value=10 ** 18):
    return EthTransaction.transfer(KEY, nonce=nonce, to=OTHER.address, value=value, gas_price=10 ** 9)


def test_sender_recovered_from_signature():
    tx = make_transfer()
    tx._sender = None
    assert tx.sender == KEY.address


def test_hash_is_stable_and_signature_dependent():
    tx1 = make_transfer()
    tx2 = make_transfer()
    assert tx1.hash_hex() == tx2.hash_hex()
    assert make_transfer(nonce=1).hash_hex() != tx1.hash_hex()


def _counted_keccak(module):
    return mock.patch.object(module, "keccak256", wraps=keccak256)


def test_transaction_is_hashed_once_and_again_when_a_field_changes():
    tx = make_transfer()
    with _counted_keccak(transaction_module) as hashed:
        first = tx.hash()
        assert tx.hash() == first and tx.hash_hex() == "0x" + first.hex()
        assert hashed.call_count == 1
        assert first == keccak256(tx.encode())
        # sign() replaces the signature: the kept hash must not outlive it.
        tx.sign(OTHER)
        assert tx.hash() == keccak256(tx.encode()) != first
        assert tx.sender == OTHER.address
        tx.sign(KEY)
        assert tx.hash() == first
        tx.nonce += 1  # a field edited in place, signature now stale: still the hash of the bytes
        assert tx.hash() == keccak256(tx.encode()) != first


def test_unsigned_transaction_has_no_hash_before_sign_and_the_right_one_after():
    tx = EthTransaction(nonce=0, gas_price=10 ** 9, gas_limit=21_000, to=OTHER.address,
                        value=10 ** 18)
    with pytest.raises(TransactionError):
        tx.hash()
    assert tx.sign(KEY).hash() == make_transfer().hash()


def test_header_is_hashed_once_and_again_when_gas_used_is_filled_in():
    block = build_block(number=1, parent_hash=b"\x11" * 32, timestamp=12.0,
                        miner=OTHER.address, transactions=[make_transfer()])
    twin = build_block(number=1, parent_hash=b"\x11" * 32, timestamp=12.0,
                       miner=OTHER.address, transactions=[make_transfer()])
    with _counted_keccak(block_module) as hashed:
        before = block.hash()
        assert block.hash() == before and block.header.hash_hex() == "0x" + before.hex()
        assert hashed.call_count == 1
        block.header.gas_used = 21_000  # what apply_block does after executing
        after = block.hash()
        assert after != before and block.hash() == after
        assert hashed.call_count == 2
    twin.header.gas_used = 21_000
    assert twin.hash() == after  # the same as a header never hashed before the edit


def test_selector_is_hashed_once_per_method_name():
    transaction_module._selector.cache_clear()
    with _counted_keccak(transaction_module) as hashed:
        data = encode_call_data("report", {"cycle": 1})
        assert encode_call_data("report", {"cycle": 2})[:4] == data[:4] == keccak256(b"report")[:4]
        assert decode_call_data(data) == ("report", {"cycle": 1})
        assert hashed.call_count == 1
        assert encode_call_data("reporu", {"cycle": 1})[:4] == keccak256(b"reporu")[:4]


def test_unsigned_transaction_cannot_encode():
    tx = EthTransaction(nonce=0, gas_price=1, gas_limit=21_000, to=OTHER.address, value=1)
    with pytest.raises(TransactionError):
        tx.encode()


def test_validate_basic_checks_gas_limit():
    tx = EthTransaction(nonce=0, gas_price=1, gas_limit=100, to=OTHER.address, value=1)
    tx.sign(KEY)
    with pytest.raises(TransactionError):
        tx.validate_basic()


def test_contract_call_roundtrip():
    tx = EthTransaction.contract_call(
        KEY, nonce=3, contract=OTHER.address, method="report",
        args={"cycle": 7, "fingerprint": "0x" + "ab" * 32}, gas_price=22 * 10 ** 9,
    )
    method, args = decode_call_data(tx.data)
    assert method == "report"
    assert args == {"cycle": 7, "fingerprint": "0x" + "ab" * 32}
    assert tx.sender == KEY.address


def test_calldata_selector_checked():
    data = encode_call_data("report", {"cycle": 1})
    tampered = b"\x00\x00\x00\x00" + data[4:]
    with pytest.raises(TransactionError):
        decode_call_data(tampered)


def test_calldata_too_short():
    with pytest.raises(TransactionError):
        decode_call_data(b"\x01")


def test_intrinsic_gas_reflects_calldata():
    plain = make_transfer()
    call = EthTransaction.contract_call(
        KEY, nonce=0, contract=OTHER.address, method="m", args={"k": "v"}, gas_price=1
    )
    assert plain.intrinsic_gas() == 21_000
    assert call.intrinsic_gas() > 21_000


def test_byte_size_positive_and_reasonable():
    assert 100 < make_transfer().byte_size() < 300


def test_max_fee():
    tx = make_transfer()
    assert tx.max_fee() == tx.gas_limit * tx.gas_price
