import pytest
from fractions import Fraction
from math import gcd

from hypothesis import given, strategies as st

from plcensus.exactnum import (
    ExactnessError,
    Poly,
    RecurrenceSpec,
    charpoly,
    recurrence_eval,
    series_expand,
)
from plcensus.sequences import build_spec, terms


# -- recurrence_eval ---------------------------------------------------------

def test_recurrence_a3_prefix_and_tail():
    # prefix 3, 7 from the closed form 2^{k+1} - 1, then t_k = 3t_{k-1} - t_{k-2}
    spec = RecurrenceSpec((3, -1), (3, 7))
    assert recurrence_eval(spec, 4) == [3, 7, 18, 47]


def test_recurrence_identity():
    spec = RecurrenceSpec((1,), (5,))
    assert recurrence_eval(spec, 3) == [5, 5, 5]


def test_recurrence_lucas_like_b1():
    # rule-generated prefix 1, 3, 4, 7 then t_k = 3t_{k-2} - t_{k-4}
    spec = RecurrenceSpec((0, 3, 0, -1), (1, 3, 4, 7))
    assert recurrence_eval(spec, 6) == [1, 3, 4, 7, 11, 18]


def test_recurrence_usage_errors():
    spec = RecurrenceSpec((3, -1), (3, 7))
    with pytest.raises(ValueError):
        recurrence_eval(spec, 0)
    short = RecurrenceSpec((1, 1, 1), (1,))
    assert recurrence_eval(short, 1) == [1]  # prefix alone is fine
    with pytest.raises(ValueError):
        recurrence_eval(short, 2)  # cannot activate past the prefix


@pytest.mark.parametrize("family, params", [
    ("a", {"n": 6}),
    ("b", {"n": 3}),
    ("s", {"n": 4}),
    ("c", {"j": 3, "m": 4, "n": 3}),
    ("d", {"m": -1, "n": 4}),
])
def test_terms_match_the_generating_function_over_many_limbs(family, params):
    spec = build_spec(family, **params)
    got = terms(spec, 1000)
    assert got == series_expand(spec.gf_num, spec.gf_den, 1000)
    assert got[-1].bit_length() > 500  # well past a 30-bit limb


def test_recurrence_spec_validation():
    with pytest.raises(ValueError, match="recurrence order must be >= 1"):
        RecurrenceSpec((), (1,))


# -- series_expand -----------------------------------------------------------

def test_series_a3_gf():
    assert series_expand([0, 3, -2], [1, -3, 1], 4) == [3, 7, 18, 47]


def test_series_geometric():
    assert series_expand([1], [1, -1], 3) == [1, 1, 1]


def test_series_d_family_gf():
    # (2z + 2z^2)/(1 - 2z - z^2)
    assert series_expand([0, 2, 2], [1, -2, -1], 4) == [2, 6, 14, 34]


def test_series_pole_at_origin():
    with pytest.raises(ZeroDivisionError):
        series_expand([0, 1], [0, 1], 3)


def test_series_exactness_error():
    # z/(2 - z) has coefficient 1/2 at z^1
    with pytest.raises(ExactnessError):
        series_expand([0, 1], [2, -1], 3)


def test_series_non_unit_constant_but_exact():
    # 2z/(2 - 2z) = z/(1 - z)
    assert series_expand([0, 2], [2, -2], 3) == [1, 1, 1]


def test_series_usage_error():
    with pytest.raises(ValueError):
        series_expand([0, 1], [1, -1], 0)


@given(
    num=st.lists(st.integers(-9, 9), min_size=0, max_size=5),
    den_tail=st.lists(st.integers(-9, 9), min_size=0, max_size=5),
    unit=st.sampled_from([1, -1]),
)
def test_series_round_trip(num, den_tail, unit):
    # denominator * expansion == numerator through the checked degree
    K = 25
    numerator = Poly(num)
    denominator = Poly([unit] + den_tail)
    coeffs = series_expand(numerator, denominator, K)
    c0 = numerator[0] // unit
    product = denominator * Poly([c0] + coeffs)
    for d in range(K + 1):
        assert product[d] == numerator[d]


# -- Poly --------------------------------------------------------------------

def test_poly_trims_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly().degree == -1


def test_poly_arithmetic_and_eval():
    p = Poly([1, 2])      # 1 + 2x
    q = Poly([-1, 0, 3])  # -1 + 3x^2
    assert (p + q).coeffs == (0, 2, 3)
    assert (p - q).coeffs == (2, 2, -3)
    assert (p * q).coeffs == (-1, -2, 3, 6)


def test_poly_lucas_factorization():
    # x^4 - 3x^2 + 1 = (x^2 - x - 1)(x^2 + x - 1)
    assert Poly([-1, -1, 1]) * Poly([-1, 1, 1]) == Poly([1, 0, -3, 0, 1])


# -- charpoly ----------------------------------------------------------------

def test_charpoly_examples():
    assert charpoly([[0, 1], [1, 1]]) == Poly([-1, -1, 1])       # x^2 - x - 1
    assert charpoly([[1, 0], [0, 1]]) == Poly([1, -2, 1])        # (x - 1)^2
    assert charpoly([[3]]) == Poly([-3, 1])


def test_charpoly_non_square():
    with pytest.raises(ValueError):
        charpoly([[1, 2]])


# -- Fraction invariants -----------------------------------------------------

@given(
    a=st.integers(-10**6, 10**6),
    b=st.integers(1, 10**6),
    c=st.integers(-10**6, 10**6),
    d=st.integers(1, 10**6),
)
def test_fraction_stays_reduced(a, b, c, d):
    x, y = Fraction(a, b), Fraction(c, d)
    for z in (x + y, x - y, x * y):
        assert z.denominator > 0
        assert gcd(abs(z.numerator), z.denominator) == 1
    if y != 0:
        z = x / y
        assert z.denominator > 0
        assert gcd(abs(z.numerator), z.denominator) == 1
