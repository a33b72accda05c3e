"""Deterministic ECDSA signing, verification, and recovery."""

import hashlib
import hmac
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ecdsa import (
    N,
    Signature,
    SignatureError,
    _rfc6979_nonces,
    recover_public_key,
    recovers_to,
    sign_hash,
    sign_message,
    verify_hash,
    verify_message,
)
from repro.crypto import ecdsa
from repro.crypto.keccak import keccak256
from repro.crypto.keys import PrivateKey
from repro.crypto.secp256k1 import (
    InvalidPointError,
    P,
    known_key_table,
    recover_y,
    scalar_multiply,
)

KEY = PrivateKey.from_seed("ecdsa-tests")
MESSAGE = b"blockumulus transaction payload"


def test_sign_and_verify_message():
    signature = sign_message(KEY.secret, MESSAGE)
    assert verify_message(KEY.public_key.point, MESSAGE, signature)


def test_signature_is_deterministic():
    assert sign_message(KEY.secret, MESSAGE) == sign_message(KEY.secret, MESSAGE)


def test_different_messages_different_signatures():
    assert sign_message(KEY.secret, b"a") != sign_message(KEY.secret, b"b")


def test_verify_rejects_tampered_message():
    signature = sign_message(KEY.secret, MESSAGE)
    assert not verify_message(KEY.public_key.point, MESSAGE + b"!", signature)


def test_verify_rejects_wrong_key():
    other = PrivateKey.from_seed("someone-else")
    signature = sign_message(KEY.secret, MESSAGE)
    assert not verify_message(other.public_key.point, MESSAGE, signature)


def test_low_s_normalization():
    signature = sign_message(KEY.secret, MESSAGE)
    assert signature.s <= N // 2


def test_recover_public_key():
    message_hash = keccak256(MESSAGE)
    signature = sign_hash(KEY.secret, message_hash)
    recovered = recover_public_key(message_hash, signature)
    assert recovered == KEY.public_key.point


def test_recovery_of_tampered_input_yields_different_signer():
    message_hash = keccak256(MESSAGE)
    signature = sign_hash(KEY.secret, message_hash)
    corrupted = Signature(r=signature.r, s=(signature.s + 1) % N or 1, v=signature.v)
    try:
        recovered = recover_public_key(keccak256(b"different"), corrupted)
    except SignatureError:
        return  # rejecting outright is also acceptable
    assert recovered != KEY.public_key.point


def test_signature_serialization_roundtrip():
    signature = sign_message(KEY.secret, MESSAGE)
    assert Signature.from_bytes(signature.to_bytes()) == signature
    assert Signature.from_hex(signature.to_hex()) == signature


def test_signature_bytes_length():
    assert len(sign_message(KEY.secret, MESSAGE).to_bytes()) == 65


def test_signature_rejects_out_of_range_components():
    with pytest.raises(SignatureError):
        Signature(r=0, s=1, v=0)
    with pytest.raises(SignatureError):
        Signature(r=1, s=N, v=0)
    with pytest.raises(SignatureError):
        Signature(r=1, s=1, v=5)


def test_sign_hash_requires_32_bytes():
    with pytest.raises(SignatureError):
        sign_hash(KEY.secret, b"short")
    with pytest.raises(SignatureError):
        verify_hash(KEY.public_key.point, b"short", sign_message(KEY.secret, MESSAGE))


def test_many_keys_roundtrip():
    for index in range(5):
        key = PrivateKey.from_seed(f"key-{index}")
        signature = sign_message(key.secret, MESSAGE)
        assert verify_message(key.public_key.point, MESSAGE, signature)
        assert recover_public_key(keccak256(MESSAGE), signature) == key.public_key.point


# -- recovery is one double-scalar pass with no trailing re-verification ----------


def test_recover_rejects_r_that_is_not_a_field_element():
    # Signature() itself refuses r >= N; recovery still guards the field range.
    forged = SimpleNamespace(r=P, s=1, v=0)
    with pytest.raises(SignatureError):
        recover_public_key(keccak256(MESSAGE), forged)


def on_curve(x: int) -> bool:
    try:
        recover_y(x, False)
    except InvalidPointError:
        return False
    return True


def test_recover_rejects_r_off_the_curve():
    off_curve = next(x for x in range(1, 50) if not on_curve(x))
    with pytest.raises(InvalidPointError):
        recover_public_key(keccak256(MESSAGE), Signature(r=off_curve, s=1, v=0))


def test_recover_rejects_a_candidate_at_infinity():
    # With R = k*G the candidate is r^-1 (s*k - z) G: choose z = s*k.
    k, s = 0xB10C, 0x5EED
    r_point = scalar_multiply(k)
    message_hash = (s * k % N).to_bytes(32, "big")
    signature = Signature(r=r_point.x, s=s, v=r_point.y & 1)
    with pytest.raises(SignatureError, match="infinity"):
        recover_public_key(message_hash, signature)


@settings(max_examples=25, deadline=None)
@given(secret=st.integers(min_value=1, max_value=N - 1),
       message_hash=st.binary(min_size=32, max_size=32))
def test_recovered_key_verifies_the_signature_it_came_from(secret, message_hash):
    """The self-check recovery used to pay on every call, held as a property."""
    signature = sign_hash(secret, message_hash)
    recovered = recover_public_key(message_hash, signature)
    assert recovered == scalar_multiply(secret)
    assert verify_hash(recovered, message_hash, signature)
    # ... and of any well-formed (r, s, v) it accepts, not only of honest ones.
    forged = Signature(r=signature.r, s=signature.s % (N - 1) + 1, v=signature.v ^ 1)
    assert verify_hash(recover_public_key(message_hash, forged), message_hash, forged)


# -- the known-key check: recover-and-compare's verdict, key in hand --------------


def recovered_is(point, message_hash, signature) -> bool:
    """The reference: recover the signer and compare, a refusal being False."""
    try:
        return recover_public_key(message_hash, signature) == point
    except (SignatureError, ValueError):
        return False


def variants(signature, message_hash, r, s):
    """``signature`` with one of ``r``, ``s``, ``v`` changed, or the hash."""
    flipped = bytes([message_hash[0] ^ 1]) + message_hash[1:]
    yield Signature(r=r, s=signature.s, v=signature.v), message_hash
    yield Signature(r=signature.r, s=s, v=signature.v), message_hash
    yield Signature(r=signature.r, s=signature.s, v=signature.v ^ 1), message_hash
    yield signature, flipped


@settings(max_examples=25, deadline=None)
@given(secret=st.integers(min_value=1, max_value=N - 1),
       other=st.integers(min_value=1, max_value=N - 1),
       message_hash=st.binary(min_size=32, max_size=32),
       r=st.integers(min_value=1, max_value=N - 1),
       s=st.integers(min_value=1, max_value=N - 1))
def test_known_key_check_gives_the_verdict_of_recovery(secret, other, message_hash, r, s):
    point = scalar_multiply(secret)
    table = known_key_table(point)
    signature = sign_hash(secret, message_hash)
    assert recovers_to(table, message_hash, signature)
    assert recovered_is(point, message_hash, signature)
    for changed, digest in variants(signature, message_hash, r, s):
        assert recovers_to(table, digest, changed) == recovered_is(point, digest, changed)
    foreign = sign_hash(other, message_hash)
    assert recovers_to(table, message_hash, foreign) == recovered_is(point, message_hash, foreign)
    # The high-s twin recovers the same key, so both accept it.
    twin = Signature(r=signature.r, s=N - signature.s, v=signature.v ^ 1)
    assert recovers_to(table, message_hash, twin) and recovered_is(point, message_hash, twin)


def test_known_key_check_is_not_verify_hash():
    """``verify_hash`` ignores ``v``; recovery, and so the check, does not."""
    point = KEY.public_key.point
    message_hash = keccak256(MESSAGE)
    signature = sign_hash(KEY.secret, message_hash)
    wrong_v = Signature(r=signature.r, s=signature.s, v=signature.v ^ 1)
    assert verify_hash(point, message_hash, wrong_v)
    assert recover_public_key(message_hash, wrong_v) != point
    assert not recovers_to(known_key_table(point), message_hash, wrong_v)


def test_known_key_check_refuses_an_r_off_the_curve_like_recovery():
    point = KEY.public_key.point
    off_curve = next(x for x in range(1, 50) if not on_curve(x))
    assert not recovered_is(point, bytes(32), Signature(r=off_curve, s=1, v=0))
    assert not recovers_to(known_key_table(point), bytes(32), Signature(r=off_curve, s=1, v=0))


# RFC 6979 nonces and the low-s rule make signatures a pure function of
# (key, message): these bytes were produced by the bit-serial kernels this
# module replaced, and every ledger digest in the baselines depends on them.
GOLDEN_MESSAGES = (b"", b"blockumulus transaction payload " * 9)
GOLDEN_SIGNATURES = {
    "golden-0": (
        "0xfc9850314a0b33886658e95991504b1ba48bdd1c",
        "2fc70a2375590a573a5a360bcf3859651b9ba5762b3926a614dd61acd0713321373f799d0fb0758131170fa2c393a3c03a3e1abe719a06c58b662df39ee0a0bc01",
        "ef11c818581f4d8f55eb2f346ab29671a6c6f5f2d819bc47ccf6c6def09ae42f55c2aa141d6c665ef5e750e94d80311cc560503bf5e6f635ae313a6dc1f026a800",
    ),
    "golden-1": (
        "0xef8306b82cde1708e5e9c26aa8f8a6d920840132",
        "4230ec64e6a8e629f4301925f2e103aba05b562d60b433ff8100958703babc3a2ca4aedf4d7116ba753b80c6c6c70667278aea9beb74181e7811a18cf252213901",
        "8a92703fff716763e2b5d75f200f0ed6a796a780f00c3b66c0fc1e9df35420331b47a2bd0c5009610192feacc572ceaa1c605d35c70bb6e5190c8b85349129fe01",
    ),
    "golden-2": (
        "0x57a8c71156d0e186adaa112683bace9b35066df7",
        "01071c21f03296492dbe27aae8e1d63c590c7bea684fb25c88b7dff04061b6303d7027a4596fd93eaeb662b5b557986fff0c3ae1f0c8c9343080f2caaea81ba301",
        "980af7a9442f12779c8fe429f20dc29b315e6347ebff1dbfb52624f7cc7849f33128d4fbbd47a702a4dea24c2aaf7d82e6fe06511998e127253932c2878e97ac00",
    ),
    "golden-3": (
        "0x4f6080d0a134416f9c7020b5805fac3d10e5cd66",
        "b85428531646a9635b3c5adb481b42e7141d00a9c261e9e64765aed3d29bd5d111fd1fbdcb061ae6f7771f8aed3b784595564d0d428298c60d607f2eb99cc29f01",
        "ee5478e622c296dee6d6bd36020076e66940a05fc1de93246d30dca86caadf2128e74baa310b7a65a6899556f8430e104c62ae721fb3835d9102093b137d6ef201",
    ),
    "golden-4": (
        "0xc25a2746ba44b5e7b29dc7d7e4eaa18adc6e3223",
        "5bffdf26fd7edc6a14673ce9d95f90d2a55663be877399da537b02d856c6a2be0d2ecbe6b694d7511ec9b38946a2b21743dc3631ba50da3cd0a6201e74f71f4601",
        "e16d136617048c62a39f2859fa881756413fe0d81f7f5ec094dc3cecaac6a2304b49721234751f47aaf60e260cd4824df385e8a791074fdc8fda51d86bbf582d01",
    ),
    "golden-5": (
        "0x5ae649548c7b88bab86526517f3689598826afad",
        "b9e7241a9f987c05252882cd1942a86732eacf45d8ea0a2303efdc18944308fb676532b46d6430a2ec9202babc5ff5133df22225318456cc8af57cf2e8d8038b01",
        "671a4ade9a2ffa5d1ecf80d750949872f66df9343306462a0a29e513ce6dab16165a01595bc5dc87ffe4246e8527ba992494343a10953ba56d6c584e0407e6ea00",
    ),
    "golden-6": (
        "0xaa6f3047eef767c5597f2da401c68e8cb00d199d",
        "d6180f4f127310b182b0168bbd4b203979707da8f6f4058259e60954d30b114e24b294c7f9372e4833b7a9c79166694da927a202360969e39cfb6bfb134cbfeb01",
        "b8623f426c5426e9c303fcd6e113fd6e5afbd8ab2a26c03fa40ea12b11732725421be79d4013181f52cb2c191b58da89af2a312f54c5df9b1e7a0828550e85d300",
    ),
    "golden-7": (
        "0x6da42ff6c8fc503a30bd626adb83b95b5ae46c44",
        "d9bb0674ff51e8c3e796a977c207345f6e499c1569bd5d832894ef22e952d9e90c5ea4a1f7dba20ea50b17877cb781f8e17a8b39c8ab732ef0a3b67c0d422f0800",
        "dd9c454c3e2b50a8e6cd083029d0ea52c83f8e4b5aac0b152965ccf4a5617eec75e109aa689a62aac5c0a57d41c5ce70eb70a61061e069550377c787d703c1a200",
    ),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SIGNATURES))
def test_golden_addresses_and_signature_bytes(seed):
    address, *signatures = GOLDEN_SIGNATURES[seed]
    key = PrivateKey.from_seed(seed)
    assert key.address.hex() == address
    for message, expected in zip(GOLDEN_MESSAGES, signatures, strict=True):
        signature = key.sign(message)
        assert signature.to_bytes().hex() == expected
        assert recover_public_key(keccak256(message), signature) == key.public_key.point


# -- known answers published outside this repository ----------------------------

# secp256k1 with HMAC-SHA256 nonces over SHA-256 digests, the vectors that
# widely used secp256k1 libraries test their RFC 6979 code with; r, s and v
# are the low-s signature.
SATOSHI = hashlib.sha256(b"Satoshi Nakamoto").digest()
TEARS = hashlib.sha256(
    b"All those moments will be lost in time, like tears in rain. Time to die...").digest()

PUBLISHED_NONCES = [
    (1, SATOSHI, 0x8F8A276C19F4149656B280621E358CCE24F5F52542772691EE69063B74F15D15),
    (N - 1, SATOSHI, 0x33A19B60E25FB6F4435AF53A3D42D493644827367E6453928554F43E49AA6F90),
    (1, TEARS, 0x38AA22D72376B4DBC472E06C3BA403EE0A394DA63FC58D88686C611ABA98D6B3),
]
PUBLISHED_SIGNATURES = [
    (1, SATOSHI, 0x934B1EA10A4B3C1757E2B0C017D0B6143CE3C9A7E6A4A49860D7A6AB210EE3D8,
     0x2442CE9D2B916064108014783E923EC36B49743E2FFA1C4496F01A512AAFD9E5, 1),
    (N - 1, SATOSHI, 0xFD567D121DB66E382991534ADA77A6BD3106F0A1098C231E47993447CD6AF2D0,
     0x6B39CD0EB1BC8603E159EF5C20A5C8AD685A45B06CE9BEBED3F153D10D93BED5, None),
]


def _nonce(secret, message_hash):
    """The nonce a signature uses: the first RFC 6979 candidate."""
    return next(_rfc6979_nonces(secret, message_hash))


def _hmac_drbg_candidates(secret, message_hash, count):
    """RFC 6979 section 3.2 written out step by step: the first ``count`` values of ``k``."""
    def mac(key, data):
        return hmac.new(key, data, hashlib.sha256).digest()

    x = secret.to_bytes(32, "big")
    h1 = (int.from_bytes(message_hash, "big") % N).to_bytes(32, "big")
    V, K = b"\x01" * 32, b"\x00" * 32  # steps b, c
    K = mac(K, V + b"\x00" + x + h1)  # step d
    V = mac(K, V)  # step e
    K = mac(K, V + b"\x01" + x + h1)  # step f
    V = mac(K, V)  # step g
    candidates = []
    while len(candidates) < count:
        V = mac(K, V)  # step h.2, one 256-bit block
        if 1 <= int.from_bytes(V, "big") < N:
            candidates.append(int.from_bytes(V, "big"))
        K = mac(K, V + b"\x00")  # step h.3
        V = mac(K, V)
    return candidates


def test_a_nonce_that_gives_r_zero_is_followed_by_the_drbgs_next_candidate(monkeypatch):
    """Step h.3: an unusable ``k`` continues the same HMAC-DRBG.

    ``r == 0`` cannot be reached with real inputs, so the first point the
    signer computes is replaced by one whose ``x`` is ``N``.
    """
    real = ecdsa.scalar_multiply
    calls = []

    def first_gives_r_zero(k, point):
        calls.append(k)
        return SimpleNamespace(x=N, y=0) if len(calls) == 1 else real(k, point)

    monkeypatch.setattr(ecdsa, "scalar_multiply", first_gives_r_zero)
    secret = 0xC0FFEE
    first, second = _hmac_drbg_candidates(secret, SATOSHI, 2)
    signature = sign_hash(secret, SATOSHI)

    assert calls == [first, second]
    z = int.from_bytes(SATOSHI, "big")
    r = real(second).x % N
    s = pow(second, -1, N) * (z + r * secret) % N
    assert (signature.r, signature.s) == (r, min(s, N - s))
    assert verify_hash(real(secret), SATOSHI, signature)


@pytest.mark.parametrize("secret,message_hash,expected", PUBLISHED_NONCES,
                         ids=["key-1", "key-N-1", "key-1-tears"])
def test_published_rfc6979_nonces(secret, message_hash, expected):
    assert _nonce(secret, message_hash) == expected


@pytest.mark.parametrize("secret,message_hash,r,s,v", PUBLISHED_SIGNATURES,
                         ids=["key-1", "key-N-1"])
def test_published_signatures(secret, message_hash, r, s, v):
    signature = sign_hash(secret, message_hash)
    assert (signature.r, signature.s) == (r, s)
    if v is not None:
        assert signature.v == v
    assert recover_public_key(message_hash, signature) == scalar_multiply(secret)


def test_the_nonce_reduces_a_digest_at_or_above_the_order():
    # bits2octets(h1) = int2octets(h1 mod N): a digest >= N seeds the HMACs
    # with its residue, so it shares its nonce with that residue's digest.
    top = b"\xff" * 32
    residue = ((2**256 - 1) % N).to_bytes(32, "big")
    for secret in (1, 0xC0FFEE, N - 1):
        assert _nonce(secret, top) == _nonce(secret, residue)
    below = (N - 1).to_bytes(32, "big")
    assert _nonce(1, below) != _nonce(1, residue)
