"""Keccak-256 against published test vectors and API behaviour."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.keccak import (
    _ROUND_CONSTANTS,
    RATE_BYTES,
    Keccak256,
    _keccak_f1600,
    keccak256,
    keccak256_hex,
)

# Known Keccak-256 (pre-SHA3 padding) vectors.
VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"testing": "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
}


@pytest.mark.parametrize("message,expected", sorted(VECTORS.items()))
def test_known_vectors(message, expected):
    assert keccak256(message).hex() == expected


def test_hex_digest_matches_digest():
    assert keccak256_hex(b"abc") == keccak256(b"abc").hex()


def test_digest_is_32_bytes():
    assert len(keccak256(b"x" * 1000)) == 32


def test_incremental_update_equals_one_shot():
    hasher = Keccak256()
    hasher.update(b"The quick brown fox ")
    hasher.update(b"jumps over the lazy dog")
    assert hasher.hexdigest() == VECTORS[b"The quick brown fox jumps over the lazy dog"]


def test_update_returns_self_for_chaining():
    assert Keccak256().update(b"a").update(b"bc").hexdigest() == VECTORS[b"abc"]


def test_multi_block_input():
    # Exercise more than one sponge block (rate = 136 bytes).
    data = b"a" * 500
    assert keccak256(data) == Keccak256(data).digest()
    incremental = Keccak256()
    for offset in range(0, len(data), 37):
        incremental.update(data[offset:offset + 37])
    assert incremental.digest() == keccak256(data)


def test_digest_does_not_finalize_state():
    hasher = Keccak256(b"ab")
    first = hasher.digest()
    assert hasher.digest() == first
    hasher.update(b"c")
    assert hasher.hexdigest() == VECTORS[b"abc"]


def test_copy_is_independent():
    hasher = Keccak256(b"ab")
    clone = hasher.copy()
    clone.update(b"c")
    hasher.update(b"X")
    assert clone.hexdigest() == VECTORS[b"abc"]
    assert hasher.hexdigest() != clone.hexdigest()


def test_rejects_non_bytes_input():
    with pytest.raises(TypeError):
        Keccak256().update("not-bytes")


def test_distinct_inputs_distinct_digests():
    digests = {keccak256(bytes([i])) for i in range(64)}
    assert len(digests) == 64


# -- the unrolled permutation and the block-wise sponge ---------------------------

# Digests of bytes(i % 251 for i in range(length)) at and around the rate
# (136 bytes), taken from the table-driven implementation this one replaced.
LENGTH_VECTORS = {
    0: "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    1: "bc36789e7a1e281436464229828f817d6612f7b477d66591ff96a9e064bcc98a",
    135: "cbdfd9dee5faad3818d6b06f95a219fd290b0e1706f6a82e5a595b9ce9faca62",
    136: "7ce759f1ab7f9ce437719970c26b0a66ff11fe3e38e17df89cf5d29c7d7f807e",
    137: "ac73d4fae68b8453f764007c1a20ce95994187861f0c3227a3a8e99a73a3b1db",
    272: "8e2476e65823b24d96ebe239f2c1534cdf763e689e2410c3b1cb0c74e6177bfc",
    1000: "af692982e84a5a9688359025660a7857cd28ee7c8d867cfa1677baf2e6d1f63b",
}


def _pattern(length: int) -> bytes:
    return bytes(i % 251 for i in range(length))


@pytest.mark.parametrize("length,expected", sorted(LENGTH_VECTORS.items()))
def test_known_answers_around_the_rate(length, expected):
    assert keccak256(_pattern(length)).hex() == expected


@pytest.mark.parametrize("split", [1, RATE_BYTES - 1, RATE_BYTES, RATE_BYTES + 1, 2 * RATE_BYTES])
def test_incremental_equals_one_shot_across_a_rate_boundary(split):
    data = _pattern(2 * RATE_BYTES + 9)
    hasher = Keccak256(data[:split])
    assert hasher.digest() == keccak256(data[:split])  # peeking must not disturb it
    hasher.update(bytearray(data[split:]))
    assert hasher.digest() == keccak256(data)


_ROTATION_OFFSETS = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)


def _reference_f1600(state: list[int]) -> list[int]:
    """Keccak-f[1600] by the specification's loops over (x, y) — the oracle."""
    mask = (1 << 64) - 1

    def rotl(value: int, shift: int) -> int:
        return ((value << shift) | (value >> (64 - shift))) & mask if shift else value

    state = list(state)
    for round_constant in _ROUND_CONSTANTS:
        parity = [state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20]
                  for x in range(5)]
        for x in range(5):
            delta = parity[(x - 1) % 5] ^ rotl(parity[(x + 1) % 5], 1)
            for y in range(0, 25, 5):
                state[x + y] ^= delta
        rotated = [0] * 25
        for x in range(5):
            for y in range(5):
                rotated[y + 5 * ((2 * x + 3 * y) % 5)] = rotl(
                    state[x + 5 * y], _ROTATION_OFFSETS[x + 5 * y])
        for y in range(0, 25, 5):
            for x in range(5):
                state[x + y] = rotated[x + y] ^ (
                    ~rotated[(x + 1) % 5 + y] & rotated[(x + 2) % 5 + y])
        state[0] ^= round_constant
    return state


_ONES = 2**64 - 1
#: The lanes the permutation holds complemented between rounds.
_COMPLEMENTED_LANES = (1, 2, 8, 12, 17, 20)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=25, max_size=25))
@example([0] * 25)
@example([_ONES] * 25)
@example([1] * 25)
@example([1 << 63] * 25)
@example([1 << (lane * 5 % 64) for lane in range(25)])
@example([_ONES if lane in _COMPLEMENTED_LANES else 0 for lane in range(25)])
@example([0 if lane in _COMPLEMENTED_LANES else _ONES for lane in range(25)])
def test_unrolled_permutation_matches_the_specification_loops(state):
    before = list(state)
    assert _keccak_f1600(state) == _reference_f1600(state)
    assert state == before  # the permutation returns a new state
