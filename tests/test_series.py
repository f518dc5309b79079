"""Truncated series arithmetic and the generating-function products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_shuffles.fq import sp_class_measure
from affine_shuffles.series import (
    TruncatedSeries,
    geometric_inverse,
    geometric_power,
    make_monomial,
    reiner_identity_check,
    rhs_type_c_product,
    rhs_unimodal_product,
    signed_type_monomial,
)


def u_term(coeff, N, **exps):
    return TruncatedSeries.term(coeff, exps, N)


# --- arithmetic ---------------------------------------------------------------

def test_geometric_series_in_u():
    s = geometric_inverse(u_term(1, 3, u=1))
    assert [s.coefficient({"u": d}) for d in range(4)] == [1, 1, 1, 1]


def test_exact_division_example():
    # (2+u)/(2-u) = (1 + u/2) * 1/(1 - u/2) = 1 + u + u^2/2 + ...
    N = 2
    s = (TruncatedSeries.one(N) + u_term(Fraction(1, 2), N, u=1)) * geometric_inverse(
        u_term(Fraction(1, 2), N, u=1)
    )
    assert s.coefficient({}) == 1
    assert s.coefficient({"u": 1}) == 1
    assert s.coefficient({"u": 2}) == Fraction(1, 2)


def test_difference_of_squares():
    N = 4
    s = (TruncatedSeries.one(N) + u_term(1, N, u=1)) * (
        TruncatedSeries.one(N) - u_term(1, N, u=1)
    )
    assert s.terms == {make_monomial({"u": 2}): Fraction(-1), (): Fraction(1)}


def test_truncation_drops_high_degrees():
    s = u_term(1, 2, u=2)
    assert (s * s).terms == {}


def test_truncation_mismatch_raises():
    with pytest.raises(ValueError):
        TruncatedSeries.one(2) + TruncatedSeries.one(3)


def test_geometric_requires_positive_u_degree():
    with pytest.raises(ValueError):
        geometric_inverse(u_term(1, 3, x1=1))


def test_geometric_power_is_negative_binomial():
    s = geometric_power(u_term(1, 4, u=1, x1=1), 3)
    # coefficient of u^j x1^j is binom(j+2, j)
    assert s.coefficient({"u": 2, "x1": 2}) == 6
    assert s.coefficient({"u": 4, "x1": 4}) == 15


def _random_series(data, N=4):
    n_terms = data.draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mono = make_monomial(
            {
                "u": data.draw(st.integers(0, N)),
                "x1": data.draw(st.integers(0, 2)),
                "y2": data.draw(st.integers(0, 2)),
            }
        )
        terms[mono] = Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 4)))
    return TruncatedSeries(N, terms)


@settings(max_examples=40)
@given(st.data())
def test_mul_commutative_and_associative(data):
    a, b, c = (_random_series(data) for _ in range(3))
    assert (a * b).terms == (b * a).terms
    assert ((a * b) * c).terms == (a * (b * c)).terms


@settings(max_examples=40)
@given(st.data())
def test_mul_distributes_over_add(data):
    a, b, c = (_random_series(data) for _ in range(3))
    assert (a * (b + c)).terms == (a * b + a * c).terms


# --- the type C product ---------------------------------------------------------

def test_type_c_exponents_are_counts():
    # b_m is the coefficient of y_m u^m: only the factor (1 + y_m u^m)^{b_m}
    # makes that monomial. m = 1 exponents: q/2 for even q, (q-1)/2 for odd q
    def exponent(q, m):
        return rhs_type_c_product(q, m).coefficient({"u": m, f"y{m}": 1})

    assert exponent(2, 1) == 1
    assert exponent(3, 1) == 1
    assert exponent(5, 1) == 2
    assert exponent(2, 2) == 1


def test_rhs_type_c_frozen_coefficients():
    rhs2 = rhs_type_c_product(2, 2)
    assert rhs2.coefficient({"u": 1, "x1": 1}) == 1
    assert rhs2.coefficient({"u": 2, "y2": 1}) == 1  # one self-conjugate quartic
    rhs3 = rhs_type_c_product(3, 1)
    assert rhs3.coefficient({"u": 1, "y1": 1}) == 1  # z^2 + 1 over F_3


def test_rhs_type_c_matches_enumeration():
    for q in (2, 3):
        N = 3
        rhs = rhs_type_c_product(q, N)
        for n in range(1, N + 1):
            got = rhs.u_slice(n)
            expected = {}
            for t, mass in sp_class_measure(n, q).masses.items():
                expected[make_monomial(signed_type_monomial(t))] = mass * q**n
            assert got == expected, (q, n)


def test_rhs_type_c_total_is_q_to_n():
    for q in (2, 3, 4, 5):
        rhs = rhs_type_c_product(q, 3).substitute_ones()
        for n in range(4):
            assert rhs.coefficient({"u": n}) == q**n


# --- the unimodal product ---------------------------------------------------------

def test_rhs_unimodal_frozen_coefficients():
    rhs = rhs_unimodal_product(3)
    assert rhs.coefficient({"u": 3, "x3": 1}) == Fraction(1, 4)
    assert rhs.coefficient({"u": 3, "x1": 3}) == Fraction(1, 4)
    assert rhs.coefficient({"u": 3, "x1": 1, "x2": 1}) == Fraction(1, 2)


def test_unimodal_product_reciprocal_identity():
    # with every cycle variable set to 1 the product collapses to 1/(1-u)
    rhs = rhs_unimodal_product(10).substitute_ones()
    for n in range(11):
        assert rhs.coefficient({"u": n}) == 1


# --- the descent identity -----------------------------------------------------------

def test_reiner_identity_examples():
    assert reiner_identity_check(1, 1).passed
    assert reiner_identity_check(2, 2).passed
    assert reiner_identity_check(2, 3).passed


def test_reiner_u2_x1sq_value():
    # coefficient of u^2 x1^2 at k = 2 (q = 3) is binom(3, 2) = 3 from the
    # identity element of C_2
    rhs = rhs_type_c_product(3, 2)
    assert rhs.coefficient({"u": 2, "x1": 2}) == 3
