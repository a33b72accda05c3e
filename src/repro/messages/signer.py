"""Pluggable message-signing schemes.

Every Blockumulus message is signed.  The reproduction supports two signer
implementations with identical wire formats (a 20-byte address identity and
a 65-byte signature):

* :class:`EcdsaSigner` — real secp256k1 ECDSA over Keccak-256, exactly what
  the paper's implementation uses.  This is the default for functional
  tests, the Table II byte accounting, and the security scenarios.
* :class:`SimulatedSigner` — a keyed-MAC stand-in used by the large burst
  benchmarks (5,000–20,000 transactions, Figures 9/10).  Real ECDSA in pure
  Python costs a transaction on two cells about twenty times the CPU this
  signer does (signatures, signature checks and the Keccak passes under
  both; docs/BENCHMARKS.md, "What a real-ECDSA transaction costs now", has
  the measured split): a 20,000-transaction burst would spend minutes on
  signatures without changing any measured quantity.  The *simulated* CPU
  cost of verification is modelled separately in
  :class:`repro.sim.CellServiceModel`, and the byte size on the wire is the
  same 65 bytes.  Verification still fails for
  tampered payloads or wrong senders, so protocol-level authenticity checks
  remain meaningful.

This substitution is documented in DESIGN.md (section "Substitutions").

:class:`SignedStatement` is the base of everything that is signed *inside*
a message (confirmations, votes, acks, vouchers): which fields a signature
covers is the statement's field declaration (:mod:`~repro.messages.wire`),
so the signed bytes, the wire form and the parser cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable, ClassVar, Iterable, Optional, Protocol, Self

from ..crypto.ecdsa import Signature, SignatureError
from ..crypto.hashing import fast_hash
from ..crypto.keys import (
    MESSAGE_DIGESTS,
    PUBLIC_KEY_ADDRESSES,
    Address,
    PrivateKey,
    PublicKey,
    recover_address,
)
from ..crypto.memo import BoundedMemo
from ..encoding import canonical_json
from . import wire


class Signer(Protocol):
    """Anything that can sign message bytes on behalf of an address."""

    @property
    def address(self) -> Address:
        """The identity this signer signs for."""
        ...

    @property
    def scheme(self) -> str:
        """Wire-format scheme tag ('ecdsa' or 'sim')."""
        ...

    def sign(self, message: bytes) -> bytes:
        """Produce a 65-byte signature over ``message``."""
        ...


class EcdsaSigner:
    """Real ECDSA signing with a :class:`PrivateKey`."""

    scheme = "ecdsa"

    def __init__(self, key: PrivateKey) -> None:
        self.key = key

    @property
    def address(self) -> Address:
        """The 20-byte address derived from the signing key."""
        return self.key.address

    def sign(self, message: bytes) -> bytes:
        """Produce a 65-byte recoverable ECDSA signature over ``message``."""
        return self.key.sign(message).to_bytes()

    @classmethod
    def from_seed(cls, seed: str | bytes | int) -> "EcdsaSigner":
        """Deterministic signer for tests and reproducible experiments."""
        return cls(PrivateKey.from_seed(seed))


class SimulatedSigner:
    """Fast keyed-MAC signer with the same wire footprint as ECDSA.

    The "signature" is ``H(secret || message) || H(message || secret) ||
    0x00`` (65 bytes, H = BLAKE2b-256).  A process-wide registry maps
    addresses to their verification secrets, standing in for public-key
    recovery; this is purely a simulation-speed device and is never used
    where cryptographic soundness is being evaluated.
    """

    scheme = "sim"

    #: address-hex -> secret registry used for verification.
    _registry: dict[str, bytes] = {}

    def __init__(self, seed: str | bytes | int) -> None:
        if isinstance(seed, int):
            seed = str(seed)
        if isinstance(seed, str):
            seed = seed.encode()
        self._secret = fast_hash(b"sim-signer/" + seed)
        self._address = Address(fast_hash(b"sim-address/" + self._secret)[-20:])
        self._registry[self._address.hex()] = self._secret

    @property
    def address(self) -> Address:
        """The 20-byte simulated identity derived from the seed."""
        return self._address

    def sign(self, message: bytes) -> bytes:
        """Produce the 65-byte keyed-MAC stand-in signature."""
        first = fast_hash(self._secret + message)
        second = fast_hash(message + self._secret)
        return first + second + b"\x00"

    @classmethod
    def verify(cls, address: Address, message: bytes, signature: bytes) -> bool:
        """Check a simulated signature against the registry."""
        secret = cls._registry.get(address.hex())
        if secret is None or len(signature) != 65:
            return False
        expected = fast_hash(secret + message) + fast_hash(message + secret) + b"\x00"
        return signature == expected

    @classmethod
    def clear_registry(cls) -> None:
        """Drop the process-wide verification state (test and benchmark isolation).

        That is the registered simulated identities, the registered
        consortium keys (with the tables their checks built), the memo of
        verified ECDSA signatures and the memos of message digests and
        public-key addresses: a run that replays a seed in the same process
        must not find its signatures already vouched for, its keys' tables
        already built, or its messages and keys already hashed, by the
        previous run.
        """
        cls._registry.clear()
        _VERIFIED_ECDSA.clear()
        _CONSORTIUM_KEYS.clear()
        MESSAGE_DIGESTS.clear()
        PUBLIC_KEY_ADDRESSES.clear()


@dataclass(frozen=True)
class SignedStatement(wire.Body):
    """Base of the individually signed statements (confirmations, votes…).

    A statement names its signed fields once (:class:`~.wire.Kind`).  The
    signer keeps the bytes it signed on the instance, so verifying that same
    object costs no second encode; a parsed statement is verified once by
    its receiver and encodes for it without keeping anything.  The bytes
    belong to the instance, never to its field values: a
    ``dataclasses.replace``d or re-built copy encodes afresh, so a tampered
    one cannot verify.
    """

    #: Domain tag mixed into the signed bytes (not into the wire form).
    KIND: ClassVar[Optional[str]] = None
    #: The field naming who signed; ``create`` fills it from its signer.
    SIGNER: ClassVar[str]
    _DERIVED = wire.Body._DERIVED + ("verify",)

    signature: bytes = wire.signature(signed=False, kw_only=True)
    scheme: str = wire.text(signed=False, default="ecdsa", kw_only=True)
    _body: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def body(self) -> bytes:
        """The canonical bytes that get signed.

        The canonical JSON object of the signed fields under their wire keys,
        plus ``kind`` where the class has a :attr:`KIND`, written straight
        from the class's plan (:func:`_signed_plan`): a value of exactly its
        kind's type is written by the kind, anything else — a nested body,
        a list, a free-form leaf, a ``bool`` where an integer is declared —
        goes through the kind's ``encode`` and the generic encoder for that
        one field, so what that encoder refuses is refused here the same way.
        """
        if self._body is not None:
            return self._body
        return _signed_bytes(type(self), self.__getattribute__)

    @classmethod
    def body_of(cls, **values: Any) -> bytes:
        """What :meth:`body` gives for a statement of ``values``, which is not built.

        For a reader that only checks signatures: ``values`` names every
        signed field by its attribute.
        """
        return _signed_bytes(cls, {"KIND": cls.KIND, **values}.__getitem__)

    def verify(self, known_key: Optional[PublicKey] = None) -> bool:
        """Check the signer's signature over the statement body (see :func:`verify_signature`)."""
        return verify_signature(
            self.scheme, getattr(self, self.SIGNER), self.body(), self.signature, known_key
        )

    @classmethod
    def _signed(cls, signer: Signer, **fields: Any) -> Self:
        """Build a statement of ``fields`` on behalf of ``signer`` and sign it.

        For the ``create`` factories: the instance has not escaped yet, so
        filling in its signature breaks nobody's frozen view.
        """
        statement = cls(
            **{cls.SIGNER: signer.address}, **fields, signature=b"", scheme=signer.scheme
        )
        body = statement.body()
        object.__setattr__(statement, "_body", body)
        object.__setattr__(statement, "signature", signer.sign(body))
        return statement


def _signed_bytes(statement: type[SignedStatement], value: Callable[[str], Any]) -> bytes:
    """The bytes a ``statement`` signs, each signed field's value read by ``value(name)``."""
    members = []
    for prefix, name, emit, encode, omit_none in _signed_plan(statement):
        item = value(name)
        if item is None and omit_none:
            continue
        text = emit(item)
        if text is None:
            text = canonical_json.dumps(item if encode is None else encode(item))
        members.append(prefix + text)
    return ("{" + ",".join(members) + "}").encode()


def _generic(_value: Any) -> None:
    """The ``emit`` of a kind without one: every value takes the generic encoder."""
    return None


#: One signed member: its pre-escaped ``"key":`` prefix, the attribute that
#: holds it, the kind's ``emit`` and ``encode``, and whether ``None`` omits it.
_Member = tuple[
    str, str, Callable[[Any], Optional[str]], Optional[Callable[[Any], Any]], bool
]


@cache
def _signed_plan(statement: type[SignedStatement]) -> tuple[_Member, ...]:
    """What ``statement`` signs, in the order ``sort_keys`` puts the keys.

    Derived once per class from its field declarations; the domain tag is
    one more text member, read off the class attribute ``KIND``.
    """
    members = {
        item.key: (item.name, item.kind, item.omit_none)
        for item in wire.fields(statement)
        if item.signed
    }
    if statement.KIND is not None:
        members["kind"] = ("KIND", wire.text, False)
    return tuple(
        (wire.quote(key) + ":", name, kind.emit or _generic, kind.encode, omit_none)
        for key, (name, kind, omit_none) in sorted(members.items())
    )


#: Successful ECDSA checks, oldest first: ``(address, message, signature)``.
#: Cells of one simulated deployment share a process, so the envelope a
#: client sent to one cell is checked again, bit for bit, by every cell it is
#: forwarded to (20 of the 90 checks of a 16-transfer burst).
_VERIFIED_ECDSA: BoundedMemo[tuple[bytes, bytes, bytes], bool] = BoundedMemo(4096)


#: Registered consortium keys, oldest first: address bytes -> the key.  A
#: cell's peers are a fixed set, so their signatures are checked against
#: the key itself (:meth:`PublicKey.is_recovered_from`) instead of
#: recovering it; each key's table is built at its first check and lives
#: as long as its entry.  The bound caps those tables at ~8 MiB.
_CONSORTIUM_KEYS: BoundedMemo[bytes, PublicKey] = BoundedMemo(64)


def register_consortium_keys(signers: Iterable[Signer]) -> None:
    """Let :func:`verify_signature` check these ECDSA signers' signatures by key.

    A deployment registers its cells, standbys included; never a client.
    A key already registered keeps its entry, and the table it may have
    built.  Simulated signers need nothing: they registered themselves.
    """
    for address, key in consortium_keys(signers).items():
        if _CONSORTIUM_KEYS.get(address.value) is None:
            _CONSORTIUM_KEYS.put(address.value, key)


def consortium_keys(signers: Iterable[Signer]) -> dict[Address, PublicKey]:
    """The public key of each of these ECDSA signers, by address, as a client holds them.

    The same objects :func:`register_consortium_keys` registers, so a
    key's table is built once whoever checks against it first.
    """
    return {
        signer.address: signer.key.public_key
        for signer in signers
        if isinstance(signer, EcdsaSigner)
    }


def verify_signature(
    scheme: str,
    address: Address,
    message: bytes,
    signature: bytes,
    known_key: Optional[PublicKey] = None,
) -> bool:
    """Verify a signature under either scheme.

    For ECDSA the sender address must match the address recovered from the
    signature; for the simulated scheme the keyed MAC must match.  When the
    sender is a registered consortium key, the ECDSA check asks whether
    the signature recovers to that key without recovering it
    (:func:`register_consortium_keys`): the same verdict, for less than
    half the curve work.  So does ``known_key``, the public key of ``address``
    where the caller holds it itself: a client holds its consortium's
    (:func:`consortium_keys`), whether or not this process registered them.

    A successful ECDSA check is remembered under exactly the three values
    that were checked, so a repeat costs a dictionary lookup (no Keccak pass,
    no curve arithmetic) and a changed address, message or signature is a
    different key.  A failure is never remembered.
    """
    if scheme == EcdsaSigner.scheme:
        key = (address.value, message, signature)
        if _VERIFIED_ECDSA.get(key):
            return True
        try:
            parsed = Signature.from_bytes(signature)
            known = known_key or _CONSORTIUM_KEYS.get(address.value)
            if known is not None:
                verified = known.is_recovered_from(message, parsed)
            else:
                verified = recover_address(message, parsed) == address
        except (SignatureError, ValueError):
            return False
        if not verified:
            return False
        _VERIFIED_ECDSA.put(key, True)
        return True
    if scheme == SimulatedSigner.scheme:
        return SimulatedSigner.verify(address, message, signature)
    return False
