"""The Blockumulus message payload tuple P = ⟨As, Ar, O, η, τ, t, D⟩.

Section III-C2 of the paper defines each request body as a payload tuple
plus the sender's ECDSA signature over it.  The payload is serialized with
canonical JSON so that the signer and every verifier hash identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Optional

from ..crypto.hashing import fast_hash
from ..crypto.keys import Address
from ..encoding import canonical_json
from .opcodes import Opcode


class PayloadError(ValueError):
    """Raised when a payload is malformed."""


#: Seconds past which a float no longer holds the microsecond it is rounded to.
_HORIZON = 2.0**53 / 1e6

#: What the link form leaves out of the canonical bytes: the recipient (its
#: key and a quoted 0x-hex address, 57 bytes) and, right after it, a null
#: ``reply_to`` (16 bytes).
_RECIPIENT_KEY = b',"recipient":"'
_RECIPIENT_LEN = len(_RECIPIENT_KEY) + 42 + 1  # "0x", 40 hex digits, the closing quote
_NULL_REPLY_LEN = len(b',"reply_to":null')
#: And what an unsigned message leaves out besides: its sender, which the
#: link it arrives on names (a requester supplies the cell it asked, a cell
#: the peer at the other end).
_SENDER_KEY = b',"sender":"'
_SENDER_LEN = len(_SENDER_KEY) + 42 + 1


@dataclass(frozen=True)
class Payload:
    """The signed portion of every Blockumulus message.

    Fields mirror the paper's tuple: ``sender`` (As), ``recipient`` (Ar),
    ``operation`` (O), ``nonce`` (η, a random message id), ``reply_to``
    (τ, the nonce of the message being answered, if any), ``timestamp``
    (t), and ``data`` (D, whose schema depends on the operation).  A
    message that travels unsigned has no nonce: nothing binds an id to it.
    """

    sender: Address
    recipient: Address
    operation: Opcode
    nonce: Optional[str]
    timestamp: float
    data: dict[str, Any] = field(default_factory=dict)
    reply_to: Optional[str] = None
    #: The canonical encoding, bound to this instance once it was signed or
    #: first needed; a re-built or ``replace``d copy starts without it.
    _canonical: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)
    #: Its hash, which outlives the bytes (see :meth:`hash`).
    _digest: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.sender, Address) or not isinstance(self.recipient, Address):
            raise PayloadError("sender and recipient must be Address instances")
        if not isinstance(self.operation, Opcode):
            raise PayloadError("operation must be an Opcode")
        if self.nonce is not None and (type(self.nonce) is not str or not self.nonce):
            raise PayloadError("payload nonce must be a non-empty string or None")
        if self.reply_to is not None and type(self.reply_to) is not str:
            raise PayloadError("payload reply_to must be a string or None")
        if type(self.timestamp) not in (int, float) or not -_HORIZON < self.timestamp < _HORIZON:
            raise PayloadError("payload timestamp must be a finite number of seconds")
        if not isinstance(self.data, dict):
            raise PayloadError("payload data must be a dict")
        # Quantize the timestamp to the wire precision (microseconds) so the
        # in-memory payload and its round-tripped wire form are identical;
        # contracts that store the signed timestamp stay bit-equal across
        # cells that received the transaction directly vs. via forwarding.
        object.__setattr__(self, "timestamp", round(float(self.timestamp), 6))

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form used for canonical serialization (no ``nonce`` key if None)."""
        plain = {
            "sender": self.sender.hex(),
            "recipient": self.recipient.hex(),
            "operation": self.operation.value,
            "nonce": self.nonce,
            "reply_to": self.reply_to,
            "timestamp": self.timestamp,
            "data": self.data,
        }
        if self.nonce is None:
            del plain["nonce"]
        return plain

    def canonical_bytes(self) -> bytes:
        """The exact bytes that get signed: encoded once, then carried.

        ``canonical_json.dump_bytes(self.to_dict())``, written without the
        dict: ``__post_init__`` fixed the exact type of the six header
        fields, so they are written directly, in sorted-key order, around
        the one generic encode of the free-form ``data``.
        """
        encoded = self._canonical
        if encoded is None:
            reply_to, nonce = self.reply_to, self.nonce
            nonce_field = "" if nonce is None else f',"nonce":{_quote(nonce)}'
            encoded = (
                f'{{"data":{canonical_json.dumps(self.data)}{nonce_field}'
                f',"operation":{_quote(self.operation.value)}'
                f',"recipient":"{self.recipient.hex()}"'
                f',"reply_to":{"null" if reply_to is None else _quote(reply_to)}'
                f',"sender":"{self.sender.hex()}"'
                f',"timestamp":{float.__repr__(self.timestamp)}}}'
            ).encode()
            object.__setattr__(self, "_canonical", encoded)
        return encoded

    def link_bytes(self) -> bytes:
        """:meth:`canonical_bytes` without what every receiver supplies.

        That is the recipient, and ``reply_to`` while it is null — and the
        sender of an unsigned message (no nonce), which the link it arrives
        on names.  A splice, not an encode: the recipient is the last
        ``,"recipient":"`` in the bytes and the sender the last
        ``,"sender":"``, since only ``data`` comes before them and every
        text after ``data`` is a quoted string, whose quotes are escaped.
        """
        canonical = self.canonical_bytes()
        start = canonical.rfind(_RECIPIENT_KEY)
        end = start + _RECIPIENT_LEN + (_NULL_REPLY_LEN if self.reply_to is None else 0)
        if self.nonce is not None:
            return canonical[:start] + canonical[end:]
        sender = canonical.rfind(_SENDER_KEY)
        return canonical[:start] + canonical[end:sender] + canonical[sender + _SENDER_LEN:]

    def hash(self) -> bytes:
        """Hash of the canonical payload (the message/transaction id).

        Signing, sizing and verifying come before a transaction is filed
        under its id, and a ledger keeps the envelope for good: taking the
        id keeps the 32-byte digest and lets the carried bytes go.
        """
        digest = self._digest
        if digest is None:
            digest = fast_hash(self.canonical_bytes())
            object.__setattr__(self, "_digest", digest)
            object.__setattr__(self, "_canonical", None)
        return digest

    def hash_hex(self) -> str:
        """0x-prefixed payload hash."""
        return "0x" + self.hash().hex()

    def byte_size(self) -> int:
        """Size of the canonical payload encoding in bytes."""
        return len(self.canonical_bytes())

    @classmethod
    def from_dict(
        cls,
        raw: dict[str, Any],
        recipient: Optional[Address] = None,
        sender: Optional[Address] = None,
        operation: Optional[Opcode] = None,
    ) -> "Payload":
        """Rebuild a payload from its plain-dict form, coercing nothing.

        The field types are checked where every payload is (``__post_init__``);
        a hex field that is not a string fails inside ``Address.from_hex``.
        ``recipient`` / ``sender`` / ``operation``, when given, are what the
        receiver supplies, read in place of their keys (which a link form
        leaves out, and which are ignored if present).
        """
        try:
            data = raw.get("data", {})
            if type(data) is not dict:
                raise TypeError("data must be an object")
            return cls(
                sender=Address.from_hex(raw["sender"]) if sender is None else sender,
                recipient=Address.from_hex(raw["recipient"]) if recipient is None else recipient,
                operation=Opcode(raw["operation"]) if operation is None else operation,
                nonce=raw.get("nonce"),
                reply_to=raw.get("reply_to"),
                timestamp=raw["timestamp"],
                data=dict(data),
            )
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise PayloadError(f"malformed payload: {exc}") from exc
