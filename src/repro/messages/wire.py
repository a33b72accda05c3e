"""Wire fields, declared once: the codec behind every message body.

The data field ``D`` of a message has an opcode-specific schema
(Section III-C2), and a signed statement must re-serialise to the exact
bytes its signer hashed (Section III-D3).  A body class states that schema
in one place — on its dataclass fields, as ``cycle: int = wire.integer()``
— and :class:`Body` derives from it the wire form (``to_wire`` /
``to_data``), the bytes a statement signs
(:class:`~repro.messages.signer.SignedStatement`) and a **strict** parser
(``from_wire`` / ``from_data``).

Strict means nothing is coerced: each :class:`Kind` accepts exactly its
JSON types (``True`` is not an integer, ``"7"`` is not one, a number is not
a string), so what a parser accepted re-encodes to what was sent, and a
well-signed statement with a wrongly typed field is a malformed body like
any other.  A field with a default may be absent from the wire; keys the
class does not declare are ignored.  Every failure is the one typed error
of the class's family (``MembershipError``, ``CrossShardError``, …) naming
the offending wire key; rules across fields stay in ``__post_init__`` and
come out as the same error.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from functools import cache
from json.encoder import encode_basestring_ascii as quote
from math import isfinite
from operator import methodcaller
from typing import Any, Callable, ClassVar, NamedTuple, Optional, Self

from ..crypto.keys import Address
from ..encoding import base64url
from ..encoding.hexutil import strip_0x, to_hex


@dataclasses.dataclass(frozen=True)
class Kind:
    """One shape of wire value, and how it maps to the value a field holds."""

    #: How the generated reference (``docs/ARCHITECTURE.md``) prints it.
    name: str
    #: The exact JSON types accepted (``bool`` is not ``int``); empty: any.
    types: tuple[type, ...] = ()
    #: Wire value -> field value, raising ``ValueError``; None: as it is.
    decode: Optional[Callable[[Any], Any]] = None
    #: Field value -> wire value; None: as it is.
    encode: Optional[Callable[[Any], Any]] = None
    #: For a kind built from another: how (``optional`` / ``list`` /
    #: ``nested``) and from what (a kind, or a body class).
    shape: str = ""
    of: Any = None
    #: Field value -> its canonical JSON text, for a value of *exactly* the
    #: expected type; ``None`` (the result, or no function at all) sends the
    #: value through ``encode`` and the generic encoder instead, whose bytes
    #: and refusals are the reference.  Used for the bytes a statement signs.
    emit: Optional[Callable[[Any], Optional[str]]] = None

    def __call__(
        self, key: Optional[str] = None, *, signed: bool = True, omit_none: bool = False,
        **field_options: Any,
    ) -> Any:
        """A dataclass field of this kind, travelling under ``key``.

        ``key`` defaults to the field's name.  A ``default`` (handed to
        :func:`dataclasses.field` like every other option) makes the key
        optional on the wire.  ``signed=False`` keeps the field out of the
        bytes a statement signs; ``omit_none`` leaves the key out while the
        field is ``None``, and an absent key means ``None`` (give it
        ``default=None`` unless a field without a default follows it).
        """
        return dataclasses.field(
            metadata={"wire": (self, key, signed, omit_none)}, **field_options
        )


def _natural(value: int) -> int:
    if value < 0:
        raise ValueError("is negative")
    return value


_INFINITE = (float("inf"), float("-inf"))


def _finite(value: Any) -> Any:
    if value != value or value in _INFINITE:
        raise ValueError("is not a finite number")
    return value


def _whole_microseconds(value: float) -> float:
    """A time as an encoder emits it; anything finer would be rounded away."""
    if round(value, 6) != value or value in _INFINITE:  # NaN equals nothing, itself included
        raise ValueError("is not a finite time in whole microseconds")
    return value


def _signature(value: str) -> bytes:
    """Exactly 65 bytes as unpadded base64url (87 characters)."""
    return base64url.decode(value, 65)


def _hex_bytes(value: str) -> bytes:
    """``0x`` and lowercase hex digits, as :func:`to_hex` writes them."""
    decoded = bytes.fromhex(strip_0x(value))
    if to_hex(decoded) != value:
        raise ValueError("is not 0x-prefixed lowercase hex")
    return decoded


def _emit_text(value: Any) -> Optional[str]:
    return quote(value) if type(value) is str else None


def _emit_integer(value: Any) -> Optional[str]:
    return int.__repr__(value) if type(value) is int else None  # True is not an integer


def _emit_seconds(value: Any) -> Optional[str]:
    if type(value) is float and isfinite(value):  # the generic encoder refuses the rest
        return float.__repr__(round(value, 6))
    return None


def _emit_address(value: Any) -> Optional[str]:
    return f'"{value.hex()}"' if type(value) is Address else None


text = Kind("text", (str,), emit=_emit_text)
integer = Kind("integer", (int,), emit=_emit_integer)
#: A count, sequence or cycle number.
natural = Kind("non-negative integer", (int,), _natural, emit=_emit_integer)
flag = Kind("flag", (bool,))
#: An exact number: neither rounded nor converted.
number = Kind("number", (int, float), _finite)
#: Simulated seconds: written as a float rounded to the microsecond.
seconds = Kind(
    "seconds", (float,), _whole_microseconds, lambda value: round(float(value), 6),
    emit=_emit_seconds,
)
address = Kind("address", (str,), Address.from_hex, Address.hex, emit=_emit_address)
#: 65 bytes as unpadded base64url (:mod:`repro.encoding.base64url`).
signature = Kind("base64url signature", (str,), _signature, base64url.encode)
#: Raw bytes (a fingerprint) as ``0x``-prefixed hex.
digest = Kind("hex bytes", (str,), _hex_bytes, to_hex)
#: A JSON object some later stage reads (an inner envelope's wire form).
obj = Kind("object", (dict,))
anything = Kind("any")


def optional(kind: Kind) -> Kind:
    """``kind`` or JSON ``null`` (``None`` in memory)."""
    decode, encode, emit = kind.decode, kind.encode, kind.emit
    return Kind(
        f"{kind.name} or null",
        kind.types + (type(None),) if kind.types else (),
        None if decode is None else lambda value: None if value is None else decode(value),
        None if encode is None else lambda value: None if value is None else encode(value),
        "optional",
        kind,
        None if emit is None else lambda value: "null" if value is None else emit(value),
    )


def list_of(kind: Kind) -> Kind:
    """A JSON list of ``kind``; a tuple in memory."""
    types, decode, encode = kind.types, kind.decode, kind.encode

    def decode_items(items: list[Any]) -> tuple[Any, ...]:
        decoded = []
        for item in items:
            if types and type(item) not in types:
                raise ValueError(f"expected {kind.name} items, not {item!r}")
            decoded.append(item if decode is None else decode(item))
        return tuple(decoded)

    def encode_items(items: Any) -> list[Any]:
        return list(items) if encode is None else [encode(item) for item in items]

    return Kind(f"list of {kind.name}", (list,), decode_items, encode_items, "list", kind)


def nested(body: type[Any]) -> Kind:
    """A :class:`Body` (or an ``Envelope`` / ``DataSnapshot``), embedded as its wire form."""
    # Its methods are looked up per call, so a tracer that wraps them on the
    # class sees the calls.
    return Kind(
        body.__name__, (dict,), lambda raw: body.from_wire(raw), methodcaller("to_wire"),
        "nested", body,
    )


class Field(NamedTuple):
    """One declared field of a body class, as the codec reads it."""

    name: str
    key: str
    kind: Kind
    required: bool
    signed: bool
    omit_none: bool


@cache
def fields(body: type) -> tuple[Field, ...]:
    """The declared wire fields of a body class, the signed ones first."""
    declared = []
    for item in dataclasses.fields(body):
        if "wire" in item.metadata:
            kind, key, signed, omit_none = item.metadata["wire"]
            required = not omit_none and dataclasses.MISSING is item.default is item.default_factory
            declared.append(Field(item.name, key or item.name, kind, required, signed, omit_none))
    return tuple(sorted(declared, key=lambda item: not item.signed))


def encode(body: Any) -> dict[str, Any]:
    """The declared fields of ``body`` under their wire keys."""
    values, encoded = body.__dict__, {}
    for name, key, kind, _required, _signed, omit_none in fields(type(body)):
        value = values[name]
        if value is not None or not omit_none:
            encoded[key] = value if kind.encode is None else kind.encode(value)
    return encoded


class Body:
    """Base of the message bodies that declare their wire fields with a :class:`Kind`."""

    #: The typed error of the body's family; every parse failure is one.
    ERROR: ClassVar[type[ValueError]] = ValueError
    #: What a parse error calls the body (default: the class name in words).
    WHAT: ClassVar[str] = ""
    #: The key under which the body travels when it is all an envelope's
    #: data field carries; None: its wire form *is* the data field.
    DATA_KEY: ClassVar[Optional[str]] = None
    _DERIVED: ClassVar[tuple[str, ...]] = ("to_wire", "from_wire", "to_data", "from_data")

    def __init_subclass__(
        cls, error: Optional[type[ValueError]] = None, what: str = "", **kwargs: Any
    ) -> None:
        """``class Vote(Body, error=MembershipError)`` names the family; it is inherited."""
        super().__init_subclass__(**kwargs)
        if error is not None:
            cls.ERROR = error
        cls.WHAT = what or re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
        # The boundary tracer (bench/tracer.py) wraps a method on the class
        # it names, and looks for it in that class's own namespace.
        for name in cls._DERIVED:
            if name not in vars(cls):
                setattr(cls, name, inspect.getattr_static(cls, name))

    def to_wire(self) -> dict[str, Any]:
        """JSON-serializable form: every declared field under its wire key."""
        return encode(self)

    @classmethod
    def from_wire(cls, raw: Any) -> Self:
        """Parse the wire form strictly; anything else is ``cls.ERROR``."""
        key: Optional[str] = None
        try:
            if type(raw) is not dict:
                raise ValueError(f"expected an object, not {raw!r}")
            values = {}
            for name, key, kind, required, _signed, omit_none in fields(cls):
                if key in raw:
                    value = raw[key]
                    if kind.types and type(value) not in kind.types:
                        raise ValueError(f"expected {kind.name}, not {value!r}")
                    values[name] = value if kind.decode is None else kind.decode(value)
                elif required:
                    raise ValueError("is missing")
                elif omit_none:
                    values[name] = None
            key = None  # what __post_init__ refuses is a rule across fields
            return cls(**values)
        except ValueError as exc:
            where = "" if key is None else f"{key}: "
            raise cls.ERROR(f"malformed {cls.WHAT}: {where}{exc}") from exc

    def to_data(self) -> dict[str, Any]:
        """The data field D of the envelope that carries this body."""
        wire_form = self.to_wire()
        return wire_form if self.DATA_KEY is None else {self.DATA_KEY: wire_form}

    @classmethod
    def from_data(cls, raw: Any) -> Self:
        """Parse an envelope's data field down to this body."""
        if cls.DATA_KEY is not None:
            raw = raw.get(cls.DATA_KEY) if type(raw) is dict else None
        return cls.from_wire(raw)
