"""secp256k1 group arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.secp256k1 import (
    GENERATOR,
    INFINITY,
    InvalidPointError,
    N,
    P,
    Point,
    decode_point,
    double_scalar_multiply,
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


scalars = st.one_of(
    st.integers(min_value=0, max_value=2 * N),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=N - 20, max_value=N + 20),
    st.sampled_from([2**255, 2**256 - 1, 2**256, (2**256) // 3, N // 2, N // 2 + 1]),
)
points = st.one_of(
    st.sampled_from([GENERATOR, NEGATED_GENERATOR, INFINITY]),
    st.integers(min_value=1, max_value=N - 1).map(lambda k: reference_multiply(k, GENERATOR)),
)


@settings(max_examples=40, deadline=None)
@given(scalar=scalars, point=points)
def test_scalar_multiply_matches_the_affine_group_law(scalar, point):
    assert scalar_multiply(scalar, point) == reference_multiply(scalar, point)


@settings(max_examples=40, deadline=None)
@given(u1=scalars, u2=scalars, point=points)
def test_double_scalar_multiply_matches_the_affine_group_law(u1, u2, point):
    assert double_scalar_multiply(u1, u2, point) == reference_double_multiply(u1, u2, point)


@pytest.mark.parametrize("point", [GENERATOR, NEGATED_GENERATOR, INFINITY,
                                   reference_multiply(0xC0FFEE, GENERATOR)],
                         ids=["G", "-G", "infinity", "other"])
@pytest.mark.parametrize("u1,u2", [
    (0, 0), (0, 5), (5, 0), (0, N), (N, 0), (N, N),   # either side absent
    (N + 3, 2 * N + 9),                               # scalars at or beyond the order
    (7, 7), (7, N - 7),      # point = +-G: the joint pass adds equal or opposite points
    (1, 1), (1, N - 1), (2, N - 1), (N - 2, 1),
    (2**255, 2**255 + 1),
])
def test_double_scalar_multiply_named_edge_cases(u1, u2, point):
    assert double_scalar_multiply(u1, u2, point) == reference_double_multiply(u1, u2, point)


def test_fixed_base_table_reaches_position_256():
    # The NAF of a scalar just below N has its top digit at bit 256, so the
    # table of powers of two needs 257 entries.
    assert scalar_multiply(N - 1) == NEGATED_GENERATOR
    assert scalar_multiply(N - 2) == reference_multiply(N - 2, GENERATOR)
