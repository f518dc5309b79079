"""The type C product's u^n slices and the checks that read them."""

from collections import Counter
from fractions import Fraction

import pytest

from affine_shuffles.fq import sp_class_measure
from affine_shuffles.perm import CycleType, SignedCycleType
from affine_shuffles.series import reiner_identity_check, type_c_product_slice


def T(lam=(), mu=()):
    return SignedCycleType(tuple(lam), tuple(mu))


# --- the type C product ---------------------------------------------------------

def test_type_c_exponents_are_counts():
    # b_m is the coefficient of y_m u^m: only the factor (1 + y_m u^m)^{b_m}
    # makes that monomial. m = 1 exponents: q/2 for even q, (q-1)/2 for odd q,
    # also at q = 15 (k = 8 of the descent identity), which is no prime power
    def exponent(q, m):
        return type_c_product_slice(q, m).get(T(mu=(m,)), 0)

    assert exponent(2, 1) == 1
    assert exponent(3, 1) == 1
    assert exponent(5, 1) == 2
    assert exponent(15, 1) == 7
    assert exponent(2, 2) == 1


def test_rhs_type_c_at_truncation_zero_is_one():
    # the u^0 slice is the product's constant term
    for q in (1, 2, 3, 4, 5):
        assert type_c_product_slice(q, 0) == {T(): 1}


@pytest.mark.parametrize("q, n, message", [
    (2, -1, "^n must be nonnegative, got -1$"),
    (0, 2, "^q must be positive, got 0$"),
    (-3, 0, "^q must be positive, got -3$"),
])
def test_type_c_slice_rejects_bad_input(q, n, message):
    with pytest.raises(ValueError, match=message):
        type_c_product_slice(q, n)


def test_geometric_series_in_u():
    # q = 1 is k = 1 of the descent identity: every b_m is 0 and only the
    # odd-q prefactor 1/(1 - x_1 u) is left, with every coefficient 1
    for n in range(5):
        assert type_c_product_slice(1, n) == {T(lam=(1,) * n): 1}


def test_geometric_power_is_negative_binomial():
    # at q = 5, b_1 = 2 and the prefactor adds 1: the u^j x_1^j coefficient
    # of (1/(1 - x_1 u))^3 is binom(j + 2, j)
    assert type_c_product_slice(5, 2)[T(lam=(1, 1))] == 6
    assert type_c_product_slice(5, 4)[T(lam=(1, 1, 1, 1))] == 15


def test_rhs_type_c_frozen_coefficients():
    assert type_c_product_slice(2, 1)[T(lam=(1,))] == 1
    assert type_c_product_slice(2, 2)[T(mu=(2,))] == 1  # one self-conjugate quartic
    assert type_c_product_slice(3, 1)[T(mu=(1,))] == 1  # z^2 + 1 over F_3


# The product and the enumeration share only count_self_conjugate_irreducibles.
TYPE_C_GRID = {2: 12, 3: 7, 4: 5, 5: 5, 7: 4, 8: 4, 9: 4}  # q: largest n


def test_rhs_type_c_matches_enumeration():
    for q, top in TYPE_C_GRID.items():
        for n in range(1, top + 1):
            expected = {t: mass * q**n for t, mass in sp_class_measure(n, q).masses.items()}
            assert type_c_product_slice(q, n) == expected, (q, n)


def test_rhs_type_c_total_is_q_to_n():
    for q in (2, 3, 4, 5, 7, 8, 9, 15):
        for n in range(11):
            assert sum(type_c_product_slice(q, n).values()) == q**n, (q, n)


# --- unimodal permutations from the type C product at q = 2 ------------------------

def unimodal_slice(n):
    unsigned = Counter()
    for t, coeff in type_c_product_slice(2, n).items():
        unsigned[CycleType(tuple(sorted(t.lam + t.mu, reverse=True)))] += coeff
    return {t: Fraction(coeff, 2) for t, coeff in unsigned.items()}


def test_rhs_unimodal_frozen_coefficients():
    # unimodal permutations of S_3 by cycle type: 123 is (1,1,1), 132 and
    # 321 are (2,1), 231 is (3)
    assert unimodal_slice(3) == {
        CycleType((3,)): 1,
        CycleType((1, 1, 1)): 1,
        CycleType((2, 1)): 2,
    }


def test_unimodal_product_reciprocal_identity():
    # summed over cycle types the halved slice counts all 2^(n-1) unimodal permutations
    for n in range(1, 11):
        assert sum(unimodal_slice(n).values()) == 2 ** (n - 1)


# --- the descent identity -----------------------------------------------------------

def test_reiner_identity_examples():
    assert reiner_identity_check(1, 1).passed
    assert reiner_identity_check(2, 2).passed
    assert reiner_identity_check(2, 3).passed


def test_reiner_u2_x1sq_value():
    # coefficient of u^2 x1^2 at k = 2 (q = 3) is binom(3, 2) = 3 from the
    # identity element of C_2
    assert type_c_product_slice(3, 2)[T(lam=(1, 1))] == 3
