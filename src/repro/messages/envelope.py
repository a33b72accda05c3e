"""Signed message envelopes M = {P, Sig_s(P)} and nonce generation.

Section III-C2: every Blockumulus request and response is a payload tuple
P plus the sender's signature over its canonical bytes; Section III-D3
makes verifying that signature (and that the recovered identity equals the
claimed sender) the first step of serving any transaction.  The one
departure: the opcodes whose reader checks every signature they carry
travel as ``{P}`` alone, without a nonce, and leave their sender to the
link they arrive on (the route table in :mod:`repro.core.routes` names
them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..crypto.hashing import fast_hash
from ..crypto.keys import Address
from ..encoding import base64url, canonical_json
from . import wire
from .opcodes import Opcode
from .payload import Payload, PayloadError
from .signer import Signer, verify_signature


class EnvelopeError(ValueError):
    """Raised for malformed or incorrectly signed envelopes."""


#: JSON text of the scheme tags a signer can produce.
_SCHEME_JSON = {"ecdsa": b'"ecdsa"', "sim": b'"sim"'}

#: The scheme a wire or link form that names none was signed with: the
#: paper's, so the link form names a scheme only when it is another.
DEFAULT_SCHEME = "ecdsa"


def _scheme_json(scheme: str) -> bytes:
    """JSON text of a scheme tag; one no signer produces (it never verifies) is still sized."""
    return _SCHEME_JSON.get(scheme) or canonical_json.dump_bytes(scheme)

#: The largest envelope :meth:`Envelope.from_wire` reads from bytes (a resync
#: bundle or audit download of a 20,000-transaction cycle is a few tens of
#: MB) and the deepest nesting it accepts (a batch of client envelopes is
#: ~10 levels, plus what contract arguments and exported state nest); the
#: depth bound also keeps every later recursive pass — ``verify()``
#: re-encodes the payload — far from the interpreter's recursion limit.
MAX_WIRE_BYTES = 64 * 1024 * 1024
MAX_WIRE_DEPTH = 64


def _bounded_json(raw: bytes | str) -> Any:
    """Parse JSON bytes off the wire, refusing what a later pass could choke on."""
    if len(raw) > MAX_WIRE_BYTES:
        raise ValueError(f"larger than {MAX_WIRE_BYTES} bytes")
    value = canonical_json.loads(raw)
    _require_depth(value, MAX_WIRE_DEPTH)
    return value


def _require_depth(value: Any, remaining: int) -> None:
    """Refuse JSON nested more than ``remaining`` containers deep."""
    if type(value) is dict:
        value = value.values()
    elif type(value) is not list:
        return
    if remaining == 0:
        raise ValueError(f"nested deeper than {MAX_WIRE_DEPTH} levels")
    for item in value:
        if type(item) in (dict, list):
            _require_depth(item, remaining - 1)


def _read_signature(text: Any) -> bytes:
    """The 65 bytes of a wire signature; what is not one is refused naming the key."""
    try:
        if type(text) is not str:
            raise ValueError(f"expected {wire.signature.name}, not {text!r}")
        return base64url.decode(text, 65)
    except ValueError as exc:
        raise ValueError(f"signature: {exc}") from exc


class NonceFactory:
    """Deterministic generator of unique message nonces (η).

    The paper uses random nonces as message ids; for reproducibility each
    participant derives its nonces from its address and a local counter,
    which preserves uniqueness while keeping traces identical across runs.
    """

    def __init__(self, owner: Address) -> None:
        self._owner = owner
        self._counter = 0

    def next(self) -> str:
        """Produce the next unique nonce: 12 digest bytes, as 16 base64url characters."""
        self._counter += 1
        digest = fast_hash(self._owner.value + self._counter.to_bytes(8, "big"))
        return base64url.encode(digest[:12])


@dataclass(frozen=True)
class Envelope:
    """A payload plus the sender's signature (and its scheme tag).

    An envelope without a signature travels unsigned, and so without a
    nonce: what it carries is checked by its reader (a receipt's
    co-signatures, each confirmation of a batch, each forwarded client
    transaction), not through the message, and its sender is the node at
    the other end of the link.  Its scheme is still its sender's, which
    what it carries may name.
    """

    payload: Payload
    signature: Optional[bytes]
    scheme: str = DEFAULT_SCHEME
    #: Size of the link form; the bytes themselves live on the payload.
    _size: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.signature is None:
            if self.payload.nonce is not None:
                raise EnvelopeError("an unsigned envelope carries no nonce")
        elif len(self.signature) != 65:
            raise EnvelopeError("signature must be exactly 65 bytes")
        elif self.payload.nonce is None:
            raise EnvelopeError("a signed envelope carries a nonce")

    # ------------------------------------------------------------------
    # Construction and verification
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        signer: Signer,
        recipient: Address,
        operation: Opcode,
        data: dict[str, Any],
        timestamp: float,
        nonce: str,
        reply_to: Optional[str] = None,
    ) -> "Envelope":
        """Build and sign an envelope from ``signer`` to ``recipient``."""
        payload = Payload(
            sender=signer.address,
            recipient=recipient,
            operation=operation,
            nonce=nonce,
            timestamp=timestamp,
            data=data,
            reply_to=reply_to,
        )
        signature = signer.sign(payload.canonical_bytes())
        return cls(payload=payload, signature=signature, scheme=signer.scheme)

    @classmethod
    def unsigned(
        cls,
        sender: Address,
        scheme: str,
        recipient: Address,
        operation: Opcode,
        data: dict[str, Any],
        timestamp: float,
        reply_to: Optional[str] = None,
    ) -> "Envelope":
        """An envelope from ``sender`` (who signs with ``scheme``) that travels unsigned."""
        payload = Payload(
            sender=sender,
            recipient=recipient,
            operation=operation,
            nonce=None,
            timestamp=timestamp,
            data=data,
            reply_to=reply_to,
        )
        return cls(payload=payload, signature=None, scheme=scheme)

    def verify(self) -> bool:
        """Check the signature against the payload's claimed sender.

        This is the authenticity check the service cell performs on every
        incoming transaction (Section III-D3): the signature must verify
        *and* the recovered identity must equal the sender field.  An
        unsigned envelope proves nothing: False.
        """
        if self.signature is None:
            return False
        return verify_signature(
            self.scheme,
            self.payload.sender,
            self.payload.canonical_bytes(),
            self.signature,
        )

    # ------------------------------------------------------------------
    # Wire form and size accounting
    # ------------------------------------------------------------------
    def to_wire(self) -> dict[str, Any]:
        """JSON-serializable wire form (the HTTP request/response body)."""
        wire_form = {"payload": self.payload.to_dict(), "scheme": self.scheme}
        if self.signature is not None:
            wire_form["signature"] = base64url.encode(self.signature)
        return wire_form

    def to_link(self, with_sender: bool = True) -> dict[str, Any]:
        """The link form as a JSON object, for an envelope nested in another.

        The wire form without what its receiver supplies: the recipient, a
        null ``reply_to`` and the ``ecdsa`` tag — and the sender, where the
        outer envelope has the same one (``with_sender=False``) or the
        envelope travels unsigned (see :meth:`Payload.link_bytes`).
        """
        payload = self.payload.to_dict()
        del payload["recipient"]
        if payload["reply_to"] is None:
            del payload["reply_to"]
        if not with_sender or self.signature is None:
            del payload["sender"]
        link: dict[str, Any] = {"payload": payload}
        if self.signature is not None:
            link["signature"] = base64url.encode(self.signature)
        if self.scheme != DEFAULT_SCHEME:
            link["scheme"] = self.scheme
        return link

    def link_bytes(self) -> bytes:
        """What travels on a link: the canonical JSON of :meth:`to_link`.

        A splice around :meth:`Payload.link_bytes`, not an encode: its keys
        are already in sorted order.  The signed bytes are
        :meth:`Payload.canonical_bytes`, unchanged: a receiver rebuilds them
        with :meth:`from_link`, under its own identity, so a message
        verifies only where it was signed to go.
        """
        scheme, signature = self.scheme, self.signature
        tag = b"" if scheme == DEFAULT_SCHEME else b',"scheme":%b' % _scheme_json(scheme)
        if signature is None:
            return b'{"payload":%b%b}' % (self.payload.link_bytes(), tag)
        return b'{"payload":%b%b,"signature":"%b"}' % (
            self.payload.link_bytes(), tag, base64url.encode(signature).encode()
        )

    def byte_size(self) -> int:
        """Size of the HTTP body in bytes (used for Table II accounting).

        The body is the link form (:meth:`link_bytes`).
        """
        size = self._size
        if size is None:
            size = len(self.link_bytes())
            object.__setattr__(self, "_size", size)
        return size

    @classmethod
    def from_link(
        cls,
        raw: dict[str, Any] | bytes | str,
        recipient: Address,
        sender: Optional[Address] = None,
    ) -> "Envelope":
        """Parse an envelope from its link form, verifying structure only.

        ``recipient`` is what the receiver supplies: a cell its own address,
        a requester the identity that signed the request, a cell reading a
        nested client envelope the outer envelope's sender (a forward) —
        and ``sender`` too, where the outer envelope has the same one or,
        for an unsigned message, the one the link names: a requester the
        cell it asked, a cell the peer at the other end.
        Bytes are bounded as in :meth:`from_wire`.
        """
        try:
            if isinstance(raw, (bytes, str)):
                raw = _bounded_json(raw)
        except (ValueError, RecursionError) as exc:
            raise EnvelopeError(f"malformed envelope: {exc}") from exc
        return LinkEnvelope.from_wire(raw).envelope(recipient, sender)

    @classmethod
    def from_wire(cls, raw: dict[str, Any] | bytes | str) -> "Envelope":
        """Parse an envelope from its wire form, verifying structure only.

        Bytes (what a socket hands over) are bounded first — at most
        :data:`MAX_WIRE_BYTES` long, at most :data:`MAX_WIRE_DEPTH` deep,
        no non-finite number — so that nothing accepted here can make a
        later ``verify()`` raise.  One without a signature reads as
        unsigned, and so verifies for nobody.
        """
        try:
            if isinstance(raw, (bytes, str)):
                raw = _bounded_json(raw)
            payload = Payload.from_dict(raw["payload"])
            signature = _read_signature(raw["signature"]) if "signature" in raw else None
            scheme = raw.get("scheme", DEFAULT_SCHEME)
            if not isinstance(scheme, str):
                raise TypeError("scheme must be a string")
        except (KeyError, TypeError, AttributeError, ValueError, RecursionError) as exc:
            # RecursionError: nesting so deep that the JSON parser gave up.
            raise EnvelopeError(f"malformed envelope: {exc}") from exc
        return cls(payload=payload, signature=signature, scheme=scheme)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def sender(self) -> Address:
        """The claimed sender address."""
        return self.payload.sender

    @property
    def recipient(self) -> Address:
        """The intended recipient address."""
        return self.payload.recipient

    @property
    def operation(self) -> Opcode:
        """The operation code."""
        return self.payload.operation

    @property
    def nonce(self) -> str:
        """The unique message id."""
        return self.payload.nonce

    @property
    def timestamp(self) -> float:
        """The sender's clock stamp, in whole microseconds."""
        return self.payload.timestamp

    @property
    def data(self) -> dict[str, Any]:
        """The operation-specific data field."""
        return self.payload.data


@dataclass(frozen=True)
class LinkEnvelope(wire.Body, error=EnvelopeError, what="link envelope"):
    """An envelope in its link form, parsed but not yet given its identities.

    What a receiver holds of a nested envelope before it knows under whom
    to read it (``TX_FORWARD`` items are parsed with their message, the
    forwarder is known once it is authenticated); :meth:`envelope` supplies
    them — and the opcode, where the outer message fixes it — as
    :class:`~repro.core.receipts.LinkConfirmation` does for a confirmation.
    """

    payload: dict[str, Any] = wire.obj()
    #: None: a message that travels unsigned.
    signature: Optional[bytes] = wire.signature(omit_none=True, default=None)
    scheme: str = wire.text(default=DEFAULT_SCHEME)

    def envelope(
        self,
        recipient: Address,
        sender: Optional[Address] = None,
        operation: Optional[Opcode] = None,
    ) -> Envelope:
        """The envelope read under ``recipient`` (and ``sender``, ``operation``);
        it verifies only if it was signed for them."""
        try:
            payload = Payload.from_dict(self.payload, recipient, sender, operation)
        except PayloadError as exc:
            raise EnvelopeError(f"malformed link envelope: {exc}") from exc
        return Envelope(payload=payload, signature=self.signature, scheme=self.scheme)
