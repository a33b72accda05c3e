"""Elliptic-curve arithmetic on secp256k1.

Ethereum accounts (and therefore Blockumulus cell and client identities) are
secp256k1 key pairs.  This module implements the group law in affine and
Jacobian coordinates together with scalar multiplication, which is all the
ECDSA layer (:mod:`repro.crypto.ecdsa`) needs.

The curve is ``y^2 = x^3 + 7`` over the prime field ``F_p`` with the standard
SEC2 parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

#: Field prime.
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
#: Group order.
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
#: Curve coefficient ``b`` in ``y^2 = x^3 + b``.
B = 7
#: Generator point coordinates.
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


class InvalidPointError(ValueError):
    """Raised when coordinates do not satisfy the curve equation."""


@dataclass(frozen=True)
class Point:
    """An affine point on secp256k1; ``x is None`` encodes the point at infinity."""

    x: int | None
    y: int | None

    def is_infinity(self) -> bool:
        """Return True if this is the identity element."""
        return self.x is None

    def __post_init__(self) -> None:
        if self.x is None:
            return
        if not (0 <= self.x < P and 0 <= self.y < P):
            raise InvalidPointError("coordinates out of field range")
        if (self.y * self.y - self.x * self.x * self.x - B) % P != 0:
            raise InvalidPointError("point is not on secp256k1")

    def encode(self, compressed: bool = False) -> bytes:
        """Serialize the point in SEC1 format (64-byte uncompressed by default)."""
        if self.is_infinity():
            raise InvalidPointError("cannot encode the point at infinity")
        if compressed:
            prefix = b"\x03" if self.y & 1 else b"\x02"
            return prefix + self.x.to_bytes(32, "big")
        return self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")


#: The identity element of the group.
INFINITY = Point(None, None)
#: The generator point.
GENERATOR = Point(GX, GY)


def _inverse_mod(value: int, modulus: int) -> int:
    """Return the modular inverse of ``value`` mod ``modulus``."""
    if value % modulus == 0:
        raise ZeroDivisionError("no inverse exists for zero")
    return pow(value, -1, modulus)


def point_add(p1: Point, p2: Point) -> Point:
    """Add two affine points on the curve."""
    if p1.is_infinity():
        return p2
    if p2.is_infinity():
        return p1
    if p1.x == p2.x and (p1.y + p2.y) % P == 0:
        return INFINITY
    if p1.x == p2.x:
        slope = (3 * p1.x * p1.x) * _inverse_mod(2 * p1.y, P) % P
    else:
        slope = (p2.y - p1.y) * _inverse_mod(p2.x - p1.x, P) % P
    x3 = (slope * slope - p1.x - p2.x) % P
    y3 = (slope * (p1.x - x3) - p1.y) % P
    return Point(x3, y3)


def _jacobian_double(x: int, y: int, z: int) -> tuple[int, int, int]:
    """Double a Jacobian point (``a = 0``, and no curve point has ``y = 0``).

    The point at infinity, ``z = 0``, comes back with ``z = 0``.
    """
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    m = (3 * x * x) % P
    nx = (m * m - 2 * s) % P
    return nx, (m * (s - nx) - 8 * ysq * ysq) % P, (2 * y * z) % P


def _jacobian_add_affine(
    x1: int, y1: int, z1: int, x2: int, y2: int
) -> tuple[int, int, int]:
    """Add the affine point ``(x2, y2)`` to a Jacobian one (``z1 == 0``: infinity)."""
    if z1 == 0:
        return x2, y2, 1
    z1sq = (z1 * z1) % P
    h = (x2 * z1sq - x1) % P
    r = (y2 * z1sq * z1 - y1) % P
    if h == 0:
        return _jacobian_double(x1, y1, z1) if r == 0 else (0, 1, 0)
    hsq = (h * h) % P
    hcu = (h * hsq) % P
    v = (x1 * hsq) % P
    nx = (r * r - hcu - 2 * v) % P
    return nx, (r * (v - nx) - y1 * hcu) % P, (h * z1) % P


def _to_affine(points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Convert finite Jacobian points to affine with one shared inversion."""
    prefix = [1]
    for _, _, z in points:
        prefix.append((prefix[-1] * z) % P)
    inverse = pow(prefix[-1], -1, P)
    affine = []
    for index in range(len(points) - 1, -1, -1):
        x, y, z = points[index]
        z_inv = (inverse * prefix[index]) % P
        inverse = (inverse * z) % P
        z_inv_sq = (z_inv * z_inv) % P
        affine.append(((x * z_inv_sq) % P, (y * z_inv_sq * z_inv) % P))
    affine.reverse()
    return affine


def _wnaf(scalar: int, width: int) -> list[tuple[int, int]]:
    """Width-``width`` non-adjacent form as ``(bit position, digit)``, lowest first.

    Only the non-zero digits are listed: they are odd, smaller than
    ``2**(width-1)`` in magnitude and at least ``width`` positions apart.
    """
    full = 1 << width
    terms = []
    position = 0
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        scalar >>= zeros
        position += zeros
        digit = scalar & (full - 1)
        if digit & (full >> 1):
            digit -= full
        terms.append((position, digit))
        scalar -= digit
    return terms


@cache
def _generator_powers() -> tuple[tuple[int, int], ...]:
    """The fixed-base table: ``2**i * G`` in affine form for ``i`` in 0..256.

    With it ``k * G`` is ~85 mixed additions and no doubling (the NAF of a
    scalar below N has at most 257 digits).  It is built on first use, not
    at import: 256 doublings and one inversion, ~2 ms, which two
    multiplications pay back.  A windowed table is faster per multiplication
    but costs more to build than a small deployment's whole key set-up.
    """
    powers = [(GX, GY, 1)]
    for _ in range(256):
        powers.append(_jacobian_double(*powers[-1]))
    return tuple(_to_affine(powers))


def double_scalar_multiply(u1: int, u2: int, point: Point) -> Point:
    """Compute ``u1 * G + u2 * point`` in one pass over one accumulator.

    ``u2 * point`` is a width-5 wNAF ladder over the odd multiples
    ``1, 3, .., 15`` of ``point``; ``u1 * G`` is then added from the
    fixed-base table of :func:`_generator_powers` by the NAF digits of ``u1``.
    """
    u1 %= N
    u2 %= N
    x, y, z = 0, 1, 0
    if u2 and point.x is not None and point.y is not None:
        twice = _to_affine([_jacobian_double(point.x, point.y, 1)])[0]
        multiples = [(point.x, point.y, 1)]
        for _ in range(7):
            multiples.append(_jacobian_add_affine(*multiples[-1], *twice))
        odd = _to_affine(multiples)
        height = 0
        for position, digit in reversed(_wnaf(u2, 5)):
            for _ in range(height - position):
                x, y, z = _jacobian_double(x, y, z)
            height = position
            px, py = odd[abs(digit) >> 1]
            x, y, z = _jacobian_add_affine(x, y, z, px, py if digit > 0 else P - py)
        for _ in range(height):
            x, y, z = _jacobian_double(x, y, z)
    if u1:
        powers = _generator_powers()
        for position, digit in _wnaf(u1, 2):
            px, py = powers[position]
            x, y, z = _jacobian_add_affine(x, y, z, px, py if digit > 0 else P - py)
    if z == 0:
        return INFINITY
    return Point(*_to_affine([(x, y, z)])[0])


def scalar_multiply(scalar: int, point: Point = GENERATOR) -> Point:
    """Compute ``scalar * point`` (fixed-base for the generator, wNAF otherwise)."""
    if point == GENERATOR:
        return double_scalar_multiply(scalar, 0, INFINITY)
    return double_scalar_multiply(0, scalar, point)


def decode_point(data: bytes) -> Point:
    """Decode a 64-byte uncompressed or 33-byte compressed SEC1 point."""
    if len(data) == 64:
        return Point(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))
    if len(data) == 65 and data[0] == 0x04:
        return decode_point(data[1:])
    if len(data) == 33 and data[0] in (0x02, 0x03):
        x = int.from_bytes(data[1:], "big")
        y_sq = (pow(x, 3, P) + B) % P
        y = pow(y_sq, (P + 1) // 4, P)
        if (y * y) % P != y_sq:
            raise InvalidPointError("x coordinate has no square root on the curve")
        if (y & 1) != (data[0] & 1):
            y = P - y
        return Point(x, y)
    raise InvalidPointError(f"unsupported point encoding of length {len(data)}")


def recover_y(x: int, is_odd: bool) -> int:
    """Recover the y coordinate for ``x`` with the requested parity."""
    y_sq = (pow(x, 3, P) + B) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if (y * y) % P != y_sq:
        raise InvalidPointError("x coordinate is not on the curve")
    if (y & 1) != int(is_odd):
        y = P - y
    return y
