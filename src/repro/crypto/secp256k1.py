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
from operator import itemgetter

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


def _inverse_each(values: list[int]) -> list[int]:
    """The inverses mod P of non-zero ``values``, for the price of one inversion."""
    prefix = [1]
    for value in values:
        prefix.append((prefix[-1] * value) % P)
    inverse = pow(prefix[-1], -1, P)
    inverses = [0] * len(values)
    for index in range(len(values) - 1, -1, -1):
        inverses[index] = (inverse * prefix[index]) % P
        inverse = (inverse * values[index]) % P
    return inverses


def _to_affine(points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Convert finite Jacobian points to affine with one shared inversion."""
    affine = []
    for (x, y, _), z_inv in zip(points, _inverse_each([z for _, _, z in points])):
        z_inv_sq = (z_inv * z_inv) % P
        affine.append(((x * z_inv_sq) % P, (y * z_inv_sq * z_inv) % P))
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


#: A fixed-base table: rows of affine ``(x, y)`` multiples, see :func:`fixed_base_table`.
Table = tuple[tuple[tuple[int, int], ...], ...]

#: Window bits of the generator's table (chosen by measurement, see
#: :func:`_generator_table`) and of a known key's (:func:`known_key_table`).
_GENERATOR_WIDTH = 8
_KEY_WIDTH = 6


def _half_windows(width: int) -> int:
    """Rows of a ``width``-bit table that hold either half of a split scalar.

    A half is below ``2**128`` in magnitude and a walk covers scalars below
    ``2**(width * rows - 1)`` (:func:`_walk_table`), so ``width * rows`` must
    reach 129: 17 rows at width 8, 22 at width 6.
    """
    return -(-129 // width)


def _affine_add_each(
    points: list[tuple[int, int]], addends: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """``points[i] + addends[i]`` in affine form with one shared inversion.

    Every pair must have distinct x coordinates (neither equal nor opposite
    points), which is what the table build below feeds it.
    """
    inverses = _inverse_each([x2 - x1 for (x1, _), (x2, _) in zip(points, addends)])
    sums = []
    for (x1, y1), (x2, y2), inverse in zip(points, addends, inverses):
        slope = ((y2 - y1) * inverse) % P
        x3 = (slope * slope - x1 - x2) % P
        sums.append((x3, (slope * (x1 - x3) - y1) % P))
    return sums


def fixed_base_table(point: Point, windows: int, width: int) -> Table:
    """The fixed-base table of a finite ``point``: row ``i`` holds ``j * 2**(width*i) * point``.

    ``j`` runs over ``1 .. 2**(width-1)``, so a scalar below ``2**(width *
    windows - 1)`` is a walk over ``windows`` signed ``width``-bit digits
    (:func:`_walk_table`): at most one mixed addition per row and no
    doubling.

    One Jacobian doubling chain to ``2**(width * (windows - 1) + 1) * point``
    gives every row's ``1x`` and ``2x`` entry, then the rows grow side by
    side, ``(j+1)x = jx + 1x`` in affine form with one inversion per step
    shared by all rows (no ``jx`` is ``+-1x``: every finite point has the
    prime order ``N``).
    """
    chain = [(point.x, point.y, 1)]
    for _ in range(width * (windows - 1) + 1):
        chain.append(_jacobian_double(*chain[-1]))
    affine = _to_affine(chain)
    bases = affine[0::width]
    columns = [bases, affine[1::width]]
    while len(columns) < 1 << (width - 1):
        columns.append(_affine_add_each(columns[-1], bases))
    return tuple(zip(*columns))


@cache
def _generator_table() -> Table:
    """The generator's :func:`fixed_base_table`: 17 rows of 128 multiples, width 8.

    It covers the 128-bit halves of a split scalar (:func:`_split_scalar`),
    not the whole scalar: ``u1 * G`` is ``k1 * G + k2 * (LAMBDA * G)``, two
    walks of at most 17 mixed additions each, the second reading the table
    through ``BETA``, and no doubling.  Every signature, key derivation,
    known-key check and the ``u1 * G`` half of every recovery uses it.

    It is built on first use, not at import, and kept for the life of the
    process: ~8 ms and 0.38 MiB for 2,176 points.  Widths 5..9 of the half
    table were measured beside the 43-row width-6 table of the whole scalar
    it replaced (docs/BENCHMARKS.md, "What a real-ECDSA transaction costs
    now"): ``k * G`` 0.148 ms against 0.183 ms, for 3 ms more build that
    ~85 multiplications earn back (a ``burst_ecdsa`` drive makes ~190);
    width 9 would save 0.005 ms more for 6 ms more.
    """
    return fixed_base_table(GENERATOR, _half_windows(_GENERATOR_WIDTH), _GENERATOR_WIDTH)


def _walk_table(
    x: int, y: int, z: int, scalar: int, table: Table, width: int, beta: int = 1
) -> tuple[int, int, int]:
    """Add ``scalar`` times the table's point to the Jacobian ``(x, y, z)``.

    ``table`` is a :func:`fixed_base_table` of window ``width``.  A negative
    ``scalar`` adds the negated multiples.  With ``beta = BETA`` every entry
    is read as its image under the endomorphism, so the walk adds ``scalar *
    LAMBDA`` times the table's point.  The scalar must fit the table: below
    ``2**(width * len(table) - 1)`` in magnitude.
    """
    full = 1 << width
    negate = scalar < 0
    if negate:
        scalar = -scalar
    for row in table:
        if not scalar:
            break
        digit = scalar & (full - 1)
        scalar >>= width
        if digit > full >> 1:
            # The digit ``digit - full``: subtract, and carry one up.
            scalar += 1
            px, py = row[full - digit - 1]
            if not negate:
                py = P - py
        elif digit:
            px, py = row[digit - 1]
            if negate:
                py = P - py
        else:
            continue
        if beta != 1:
            px = (px * beta) % P
        x, y, z = _jacobian_add_affine(x, y, z, px, py)
    return x, y, z


#: The curve's efficient endomorphism: ``LAMBDA * (x, y) = (BETA * x, y)``,
#: with ``LAMBDA**3 = 1 (mod N)`` and ``BETA**3 = 1 (mod P)``.
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
# A reduced basis (A1, B1), (A2, B2) of the lattice of pairs (a, b) with
# a + b * LAMBDA = 0 (mod N); its determinant is N.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1


def _split_scalar(scalar: int) -> tuple[int, int]:
    """``(k1, k2)`` with ``k1 + k2 * LAMBDA = scalar (mod N)``, both below ``2**128``.

    ``(scalar, 0)`` minus the nearest lattice vector (Gallant, Lambert and
    Vanstone); either half may be negative or zero.
    """
    c1 = (_B2 * scalar + N // 2) // N
    c2 = (-_B1 * scalar + N // 2) // N
    return scalar - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _walk_halves(
    x: int, y: int, z: int, scalar: int, table: Table, width: int
) -> tuple[int, int, int]:
    """Add ``scalar`` times the point of a GLV half ``table`` to ``(x, y, z)``.

    ``scalar = k1 + k2 * LAMBDA``: ``k1`` is walked over the table, ``k2``
    over the same entries read through the endomorphism.
    """
    k1, k2 = _split_scalar(scalar % N)
    x, y, z = _walk_table(x, y, z, k1, table, width)
    return _walk_table(x, y, z, k2, table, width, BETA)


def double_scalar_multiply(u1: int, u2: int, point: Point) -> Point:
    """Compute ``u1 * G + u2 * point`` in one pass over one accumulator.

    ``u2`` is split as ``k1 + k2 * LAMBDA`` with 128-bit halves, so ``u2 *
    point = k1 * point + k2 * (LAMBDA * point)`` is two width-5 wNAF digit
    streams over one ladder of ~128 doublings: one over the odd multiples
    ``1, 3, .., 15`` of ``point``, one over their images under the
    endomorphism, which cost one multiplication each.  ``u1 * G`` is then
    added, split the same way, from the half table of :func:`_generator_table`.
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
        terms = []
        for half, table in zip(
            _split_scalar(u2), (odd, [((BETA * px) % P, py) for px, py in odd])
        ):
            sign = -1 if half < 0 else 1
            for position, digit in _wnaf(half * sign, 5):
                px, py = table[(digit if digit > 0 else -digit) >> 1]
                terms.append((position, px, py if digit * sign > 0 else P - py))
        terms.sort(key=itemgetter(0), reverse=True)
        height = 0
        for position, px, py in terms:
            for _ in range(height - position):
                x, y, z = _jacobian_double(x, y, z)
            height = position
            x, y, z = _jacobian_add_affine(x, y, z, px, py)
        for _ in range(height):
            x, y, z = _jacobian_double(x, y, z)
    if u1:
        x, y, z = _walk_halves(x, y, z, u1, _generator_table(), _GENERATOR_WIDTH)
    if z == 0:
        return INFINITY
    return Point(*_to_affine([(x, y, z)])[0])


def known_key_table(point: Point) -> Table:
    """The table :func:`known_key_multiply` walks for ``point``: 22 rows, width 6.

    It covers only the 128-bit halves of a split scalar; the rows of
    ``LAMBDA * point`` are the same entries with ``x`` times ``BETA``.  It
    stays narrower than the generator's: a key's table is built once per key
    and process (a wider one costs more to build than a key's few dozen
    checks save).
    """
    return fixed_base_table(point, _half_windows(_KEY_WIDTH), _KEY_WIDTH)


def known_key_multiply(u1: int, u2: int, table: Table) -> Point:
    """``u1 * G + u2 * point``, where ``table`` is ``known_key_table(point)``.

    Four table walks into one accumulator and no doubling: the halves of
    ``u2 = k1 + k2 * LAMBDA`` over the point's table, the halves of ``u1``
    over the generator's, each second half reading its table through the
    endomorphism.
    """
    x, y, z = _walk_halves(0, 1, 0, u2, table, _KEY_WIDTH)
    x, y, z = _walk_halves(x, y, z, u1, _generator_table(), _GENERATOR_WIDTH)
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
