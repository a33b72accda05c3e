"""secp256k1 group arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import secp256k1
from repro.crypto.secp256k1 import (
    BETA,
    GENERATOR,
    INFINITY,
    LAMBDA,
    InvalidPointError,
    N,
    P,
    Point,
    _split_scalar,
    decode_point,
    double_scalar_multiply,
    fixed_base_table,
    known_key_multiply,
    known_key_table,
    point_add,
    recover_y,
    scalar_multiply,
)


def test_generator_is_on_curve():
    assert (GENERATOR.y ** 2 - GENERATOR.x ** 3 - 7) % P == 0


def test_off_curve_point_rejected():
    with pytest.raises(InvalidPointError):
        Point(1, 1)


def test_point_addition_identity():
    assert point_add(GENERATOR, INFINITY) == GENERATOR
    assert point_add(INFINITY, GENERATOR) == GENERATOR


def test_addition_of_inverse_is_infinity():
    negated = Point(GENERATOR.x, P - GENERATOR.y)
    assert point_add(GENERATOR, negated).is_infinity()


def test_doubling_matches_scalar_two():
    doubled = point_add(GENERATOR, GENERATOR)
    assert doubled == scalar_multiply(2)


def test_scalar_multiplication_distributes():
    # (3 + 5) * G == 3*G + 5*G
    left = scalar_multiply(8)
    right = point_add(scalar_multiply(3), scalar_multiply(5))
    assert left == right


def test_order_times_generator_is_infinity():
    assert scalar_multiply(N).is_infinity()


def test_scalar_zero_is_infinity():
    assert scalar_multiply(0).is_infinity()


def test_known_multiple():
    # 2*G from the SEC2 test data.
    doubled = scalar_multiply(2)
    assert doubled.x == 0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5
    assert doubled.y == 0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A


def test_encode_decode_uncompressed_roundtrip():
    point = scalar_multiply(123456789)
    assert decode_point(point.encode()) == point


def test_encode_decode_compressed_roundtrip():
    point = scalar_multiply(987654321)
    assert decode_point(point.encode(compressed=True)) == point


def test_decode_rejects_bad_length():
    with pytest.raises(InvalidPointError):
        decode_point(b"\x02" * 10)


def test_recover_y_parities():
    point = scalar_multiply(42)
    assert recover_y(point.x, bool(point.y & 1)) == point.y
    assert recover_y(point.x, not bool(point.y & 1)) == P - point.y


def test_encode_infinity_rejected():
    with pytest.raises(InvalidPointError):
        INFINITY.encode()


# -- the scalar-multiplication kernel against the affine group law -----------------

NEGATED_GENERATOR = Point(GENERATOR.x, P - GENERATOR.y)


def reference_multiply(scalar: int, point: Point) -> Point:
    """Bit-serial double-and-add over the affine ``point_add`` (the oracle)."""
    result = INFINITY
    for bit in bin(scalar % N)[2:]:
        result = point_add(result, result)
        if bit == "1":
            result = point_add(result, point)
    return result


def reference_double_multiply(u1: int, u2: int, point: Point) -> Point:
    return point_add(reference_multiply(u1, GENERATOR), reference_multiply(u2, point))


LAMBDA_GENERATOR = reference_multiply(LAMBDA, GENERATOR)
NEGATED_LAMBDA_GENERATOR = Point(LAMBDA_GENERATOR.x, P - LAMBDA_GENERATOR.y)

#: Scalars at the corners of the endomorphism split: the eigenvalue and its
#: neighbours, 128-bit boundaries, and ``k1 + k2 * LAMBDA`` with a half that
#: is zero or negative (the split of such a scalar gives those halves back).
SPLIT_CORNERS = [
    LAMBDA, LAMBDA * LAMBDA % N, N - LAMBDA, LAMBDA - 1, LAMBDA + 1,
    2**128 - 1, 2**128 + 1,
    5 * LAMBDA % N,                  # k1 = 0
    12345,                           # k2 = 0
    (-7 + 11 * LAMBDA) % N,          # k1 < 0
    (7 - 11 * LAMBDA) % N,           # k2 < 0
    (-(2**100) - 2**90 * LAMBDA) % N,  # both negative
]

scalars = st.one_of(
    st.integers(min_value=0, max_value=2 * N),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=N - 20, max_value=N + 20),
    st.sampled_from([2**255, 2**256 - 1, 2**256, (2**256) // 3, N // 2, N // 2 + 1]),
    st.sampled_from(SPLIT_CORNERS),
)
points = st.one_of(
    st.sampled_from([GENERATOR, NEGATED_GENERATOR, INFINITY,
                     LAMBDA_GENERATOR, NEGATED_LAMBDA_GENERATOR]),
    st.integers(min_value=1, max_value=N - 1).map(lambda k: reference_multiply(k, GENERATOR)),
)


# -- the endomorphism: constants checked, not trusted ---------------------------

def test_endomorphism_constants_are_cube_roots_of_unity():
    assert LAMBDA != 1 and pow(LAMBDA, 3, N) == 1
    assert BETA != 1 and pow(BETA, 3, P) == 1


def test_lambda_times_a_point_is_beta_times_its_x():
    assert LAMBDA_GENERATOR == Point(BETA * GENERATOR.x % P, GENERATOR.y)
    other = reference_multiply(0xC0FFEE, GENERATOR)
    assert reference_multiply(LAMBDA, other) == Point(BETA * other.x % P, other.y)


def _assert_splits(scalar):
    k1, k2 = _split_scalar(scalar)
    assert (k1 + k2 * LAMBDA - scalar) % N == 0
    assert abs(k1) < 2**128 and abs(k2) < 2**128


@settings(max_examples=300, deadline=None)
@given(scalar=scalars)
def test_split_recombines_with_halves_below_128_bits(scalar):
    _assert_splits(scalar)


@pytest.mark.parametrize("scalar", [0, 1, N - 1, N, N + 1, 2 * N, *SPLIT_CORNERS])
def test_split_named_corners(scalar):
    _assert_splits(scalar)


def test_split_corners_have_the_halves_they_were_built_from():
    assert _split_scalar(5 * LAMBDA % N) == (0, 5)
    assert _split_scalar(12345) == (12345, 0)
    assert _split_scalar((-7 + 11 * LAMBDA) % N) == (-7, 11)
    assert _split_scalar((7 - 11 * LAMBDA) % N) == (7, -11)
    assert _split_scalar((-(2**100) - 2**90 * LAMBDA) % N) == (-(2**100), -(2**90))


@settings(max_examples=150, deadline=None)
@given(scalar=scalars, point=points)
def test_scalar_multiply_matches_the_affine_group_law(scalar, point):
    assert scalar_multiply(scalar, point) == reference_multiply(scalar, point)


@settings(max_examples=150, deadline=None)
@given(u1=scalars, u2=scalars, point=points)
def test_double_scalar_multiply_matches_the_affine_group_law(u1, u2, point):
    assert double_scalar_multiply(u1, u2, point) == reference_double_multiply(u1, u2, point)


#: ``(u1, u2)`` pairs at the corners of a joint pass.
EDGE_PAIRS = [
    (0, 0), (0, 5), (5, 0), (0, N), (N, 0), (N, N),   # either side absent
    (N + 3, 2 * N + 9),                               # scalars at or beyond the order
    (7, 7), (7, N - 7),      # point = +-G: the joint pass adds equal or opposite points
    (1, 1), (1, N - 1), (2, N - 1), (N - 2, 1),
    (2**255, 2**255 + 1),
    # The two digit streams of the split meet: u2 * point is +-u1 * G, or the
    # lambda-image of the point is the point the other stream is adding.
    (LAMBDA, 1), (LAMBDA, N - 1), (1, LAMBDA), (N - 1, LAMBDA),
    (0, LAMBDA + 1), (0, LAMBDA - 1), (0, N - LAMBDA), (0, LAMBDA * LAMBDA % N),
    (0, 2**128 - 1), (0, 2**128 + 1),
]


@pytest.mark.parametrize("point", [GENERATOR, NEGATED_GENERATOR, INFINITY,
                                   reference_multiply(0xC0FFEE, GENERATOR),
                                   LAMBDA_GENERATOR, NEGATED_LAMBDA_GENERATOR],
                         ids=["G", "-G", "infinity", "other", "lambda*G", "-lambda*G"])
@pytest.mark.parametrize("u1,u2", EDGE_PAIRS)
def test_double_scalar_multiply_named_edge_cases(u1, u2, point):
    assert double_scalar_multiply(u1, u2, point) == reference_double_multiply(u1, u2, point)


G_WIDTH = secp256k1._GENERATOR_WIDTH
G_ROWS = secp256k1._half_windows(G_WIDTH)
KEY_WIDTH = secp256k1._KEY_WIDTH
FINITE_POINTS = [GENERATOR, NEGATED_GENERATOR, reference_multiply(0xC0FFEE, GENERATOR),
                 LAMBDA_GENERATOR, NEGATED_LAMBDA_GENERATOR]


def test_fixed_base_table_holds_every_multiple_of_every_window():
    table = secp256k1._generator_table()
    # 17 rows of 128 multiples: either 128-bit half of a split scalar fits.
    assert (G_WIDTH, G_ROWS) == (8, 17) and G_WIDTH * G_ROWS - 1 >= 129
    assert {len(row) for row in table} == {2 ** (G_WIDTH - 1)}
    assert table == fixed_base_table(GENERATOR, G_ROWS, G_WIDTH)
    for window in (0, G_ROWS // 2, G_ROWS - 1):
        for multiple in (1, 2, 3, 2 ** (G_WIDTH - 1) - 1, 2 ** (G_WIDTH - 1)):
            expected = reference_multiply(multiple << (G_WIDTH * window), GENERATOR)
            assert table[window][multiple - 1] == (expected.x, expected.y)


@pytest.mark.parametrize("scalar", [
    N - 1, N - 2, 2**256 - 1,
    2**255, 2**256 - 2**250,
    # Digit patterns of a 6-bit window over 43 windows, the layout of the
    # whole-scalar table the half table replaced.
    (1 << (6 * 42)),
    (1 << (6 * 42)) - 1,
    int("1" * 256, 2) % N,
    sum((2 ** 5 + 1) << (6 * i) for i in range(42)),
    sum(2 ** 5 << (6 * i) for i in range(42)),
], ids=lambda scalar: f"{scalar % N:#x}"[:14])
def test_fixed_base_windows_carry_up_to_the_top(scalar):
    # N - 1 is -G only if both halves of its split are walked right.
    assert scalar_multiply(scalar) == reference_multiply(scalar, GENERATOR)
    assert scalar_multiply(N - 1) == NEGATED_GENERATOR


def _from_halves(k1: int, k2: int) -> int:
    return (k1 + k2 * LAMBDA) % N


#: Halves at the reach of a width-8 walk: every window borrows (a carry
#: chain into the top row), the largest digit in every window without a
#: carry, the largest half, and those negated.
G_HALVES = [
    (1 << (G_WIDTH * (G_ROWS - 1))) - 1,
    sum((2 ** (G_WIDTH - 1) + 1) << (G_WIDTH * i) for i in range(G_ROWS - 1)),
    sum(2 ** (G_WIDTH - 1) << (G_WIDTH * i) for i in range(G_ROWS - 1)),
    2**128 - 1,
]


@pytest.mark.parametrize("half", G_HALVES + [-half for half in G_HALVES],
                         ids=lambda half: f"{half:#x}"[:14])
def test_a_half_table_walk_carries_up_to_the_top_row(half):
    table = secp256k1._generator_table()
    for k1, k2 in ((half, 0), (0, half), (half, -half)):
        x, y, z = secp256k1._walk_table(0, 1, 0, k1, table, G_WIDTH)
        x, y, z = secp256k1._walk_table(x, y, z, k2, table, G_WIDTH, BETA)
        point = Point(*secp256k1._to_affine([(x, y, z)])[0])
        assert point == reference_multiply(_from_halves(k1, k2), GENERATOR)


#: ``k`` for ``k * G`` and ``u1 * G`` at the corners of the generator's walk
#: (the split corners hold LAMBDA, N - LAMBDA, 2**128 +- 1 and the halves
#: that are negative or zero).
GENERATOR_EDGE_SCALARS = [0, 1, 2, N - 1, N, *SPLIT_CORNERS]


@pytest.mark.parametrize("scalar", GENERATOR_EDGE_SCALARS,
                         ids=lambda scalar: f"{scalar:#x}"[:14])
def test_generator_multiples_at_the_split_corners(scalar):
    expected = reference_multiply(scalar, GENERATOR)
    other = FINITE_POINTS[2]
    assert scalar_multiply(scalar) == expected                       # k * G
    assert double_scalar_multiply(scalar, 0, other) == expected      # u1 * G, no u2
    assert known_key_multiply(scalar, 0, known_key_table(other)) == expected
    assert double_scalar_multiply(scalar, 3, other) == point_add(
        expected, reference_multiply(3, other))


# -- a known key's table: u1 * G + u2 * Q without doublings ---------------------

def test_a_fixed_base_table_of_any_point_holds_every_multiple_of_every_window():
    point = FINITE_POINTS[2]
    table = fixed_base_table(point, 5, KEY_WIDTH)
    assert len(table) == 5 and {len(row) for row in table} == {2 ** (KEY_WIDTH - 1)}
    for window in range(5):
        for multiple in (1, 2, 2 ** (KEY_WIDTH - 1) - 1, 2 ** (KEY_WIDTH - 1)):
            expected = reference_multiply(multiple << (KEY_WIDTH * window), point)
            assert table[window][multiple - 1] == (expected.x, expected.y)


def test_a_known_key_table_covers_either_half_of_a_split_scalar():
    table = known_key_table(GENERATOR)
    assert KEY_WIDTH == 6 and len(table) == 22 and KEY_WIDTH * len(table) - 1 >= 129
    assert table == fixed_base_table(GENERATOR, 22, KEY_WIDTH)
    # Both tables start at 1 * G: the key table's first row is the first 32
    # multiples of the generator table's.
    assert table[0] == secp256k1._generator_table()[0][:2 ** (KEY_WIDTH - 1)]
    for window in (0, 11, 21):
        expected = reference_multiply(2 ** (KEY_WIDTH - 1) << (KEY_WIDTH * window), GENERATOR)
        assert table[window][-1] == (expected.x, expected.y)


@pytest.mark.parametrize("point", FINITE_POINTS, ids=["G", "-G", "other", "lambda*G", "-lambda*G"])
@pytest.mark.parametrize("u1,u2", EDGE_PAIRS)
def test_known_key_multiply_named_edge_cases(u1, u2, point):
    expected = reference_double_multiply(u1, u2, point)
    assert known_key_multiply(u1, u2, known_key_table(point)) == expected


@settings(max_examples=60, deadline=None)
@given(u1=scalars, u2=scalars, secret=st.integers(min_value=1, max_value=N - 1))
def test_known_key_multiply_matches_the_affine_group_law(u1, u2, secret):
    point = scalar_multiply(secret)
    expected = reference_double_multiply(u1, u2, point)
    assert known_key_multiply(u1, u2, known_key_table(point)) == expected
