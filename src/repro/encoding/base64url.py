"""Unpadded base64url: the text form of opaque byte strings on the wire.

A signature or a message nonce is never looked up, compared with an
anchored value or shown to a user, so it travels in the shortest text JSON
carries without escapes: RFC 4648 §5's URL-safe alphabet with the ``=``
padding left off, as JSON Web Signature writes its signatures (RFC 7515
§2).  Four characters per three bytes, where ``0x`` hex spends six — a
65-byte signature is 87 characters instead of 132.

Identifiers (addresses, transaction ids, fingerprints) stay ``0x`` hex:
they are Ethereum forms, contract-state keys or anchored values.

:func:`decode` is strict in the sense of :mod:`repro.messages.wire`: what
it accepts re-encodes to the text that was sent.  Padding, the ``+/``
alphabet, whitespace, hex, a wrong length and non-zero trailing bits are
all refused (``base64.urlsafe_b64decode`` alone accepts each of them).
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64

_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
#: Each character's six bits, for the trailing-bits check.
_VALUE = {character: value for value, character in enumerate(_ALPHABET)}
_TO_URLSAFE = bytes.maketrans(b"+/", b"-_")
#: URL-safe to standard alphabet; ``+``, ``/`` and ``=`` become ``!``, which
#: no alphabet has, so the strict standard decoder refuses them.
_FROM_URLSAFE = bytes.maketrans(b"-_+/=", b"+/!!!")
#: The padding a text of each length modulo 4 lacks (1 is never a length).
_PADDING = (b"", b"", b"==", b"=")


def encode(data: bytes) -> str:
    """``data`` as unpadded base64url text."""
    return b2a_base64(data, newline=False).rstrip(b"=").translate(_TO_URLSAFE).decode("ascii")


def text_length(size: int) -> int:
    """How many characters :func:`encode` writes for ``size`` bytes."""
    return (4 * size + 2) // 3


def decode(text: str, size: int) -> bytes:
    """The ``size`` bytes whose :func:`encode` is exactly ``text``; else ``ValueError``."""
    length = text_length(size)
    try:
        if len(text) != length:
            raise ValueError
        # A non-ASCII character fails the encode, anything else outside the
        # alphabet the strict decoder; both are ValueErrors.
        data = a2b_base64(
            text.encode("ascii").translate(_FROM_URLSAFE) + _PADDING[length % 4],
            strict_mode=True,
        )
    except ValueError:
        raise ValueError(
            f"must be {length} base64url characters (A-Z a-z 0-9 - _, unpadded)"
        ) from None
    unused = 6 * length - 8 * size  # low bits of the last character, 0, 2 or 4
    if unused and _VALUE[text[-1]] & ((1 << unused) - 1):
        raise ValueError("has non-zero trailing bits")
    return data
