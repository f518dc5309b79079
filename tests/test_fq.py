"""Finite fields, factorization, the conjugation involution, class measures."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_shuffles.fq import (
    FieldContext,
    FqPoly,
    PalindromeFoldingError,
    conjugate_poly,
    count_irreducibles,
    count_self_conjugate_irreducibles,
    factor,
    fold_palindromic_factorization,
    is_irreducible,
    make_field,
    monic_constant_one,
    palindromic_polys,
    prime_power,
    sl_class_measure,
    sp_class_measure,
)
from affine_shuffles.perm import CycleType, SignedCycleType

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
# Factoring up to degree 10 sieves F_5 up to degree 5; do it once here so the
# first Hypothesis example of the degree-10 property is not charged for it.
for _degree in range(1, 6):
    F5.irreducibles(_degree)
F9 = make_field(3, 2)


def poly(field, text):
    return FqPoly.from_text(field, text)


# --- field construction -----------------------------------------------------

def test_make_field_moduli():
    assert F4.modulus == (1, 1, 1)  # z^2 + z + 1, the unique choice
    assert F9.modulus == (1, 0, 1)  # z^2 + 1, lexicographically first
    assert F5.modulus == (0, 1)  # prime field: modulus z


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_field(4, 1)


def test_field_context_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FieldContext(2, 2, (1, 0, 1))  # z^2 + 1 = (z+1)^2 over F_2


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    with pytest.raises(ValueError):
        prime_power(6)


def test_field_axioms_small():
    for field in (F2, F3, F4, make_field(2, 3), F9):
        q = field.q
        for a in range(q):
            assert field.add(a, field.neg(a)) == 0
            if a:
                assert field.mul(a, field.inv(a)) == 1
            for b in range(q):
                assert field.mul(a, b) == field.mul(b, a)
                assert field.add(a, b) == field.add(b, a)
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    assert field.mul(a, field.add(b, c)) == field.add(
                        field.mul(a, b), field.mul(a, c)
                    )


# --- polynomial arithmetic ---------------------------------------------------

def test_poly_text_round_trip():
    f = poly(F2, "1,1,0,1")  # z^3 + z + 1
    assert f.to_text() == "1,1,0,1"
    assert f.degree == 3 and f.is_monic


def test_divmod_reconstructs():
    f = poly(F5, "1,2,3,4,1")
    g = poly(F5, "2,1,1")
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_zero_and_monic_normalization():
    z = FqPoly(F3, ())
    assert z.is_zero and z.degree == -1
    f = poly(F3, "1,2")
    assert f.monic().coeffs == (2, 1)
    with pytest.raises(ValueError):
        z.monic()


# --- factorization ------------------------------------------------------------

def test_factor_frozen_examples():
    fac = factor(poly(F2, "1,0,0,1"))  # z^3 + 1 = (z+1)(z^2+z+1)
    assert [(g.to_text(), m) for g, m in fac.factors] == [("1,1", 1), ("1,1,1", 1)]

    fac = factor(poly(F2, "1,1,0,1"))  # irreducible
    assert [(g.to_text(), m) for g, m in fac.factors] == [("1,1,0,1", 1)]

    fac = factor(poly(F2, "1,0,1,0,1"))  # (z^2+z+1)^2
    assert [(g.to_text(), m) for g, m in fac.factors] == [("1,1,1", 2)]


def test_factor_requires_monic_nonzero():
    with pytest.raises(ValueError):
        factor(FqPoly(F3, ()))
    with pytest.raises(ValueError):
        factor(poly(F3, "1,2"))


def test_factor_reconstructs_exhaustive_small():
    for field in (F2, F3, F4):
        for degree in range(1, 5):
            for f in field.all_monic(degree):
                fac = factor(f)
                assert fac.product() == f
                for g, _ in fac.factors:
                    assert is_irreducible(g)


@settings(max_examples=40)
@given(st.integers(0, 5**9 - 1), st.integers(6, 10))
def test_factor_reconstructs_random_degree_10(code, degree):
    digits = []
    for _ in range(degree):
        code, r = divmod(code, 5)
        digits.append(r)
    f = FqPoly(F5, tuple(digits[:degree]) + (1,))
    fac = factor(f)
    assert fac.product() == f
    assert sum(g.degree * m for g, m in fac.factors) == f.degree


def test_irreducible_counts_match_scans():
    for q, field in ((2, F2), (3, F3), (4, F4), (5, F5), (9, F9)):
        for n in range(1, 5):
            assert count_irreducibles(n, q) == len(field.irreducibles(n))
    assert count_irreducibles(3, 2) == 2
    assert count_irreducibles(1, 7) == 7
    assert count_irreducibles(2, 3) == 3


# --- conjugation -----------------------------------------------------------------

def test_conjugate_examples():
    assert conjugate_poly(poly(F2, "1,1")) == poly(F2, "1,1")  # z - 1 = z + 1
    # z - 2 over F_5 has root 2; 1/2 = 3, so the conjugate is z - 3
    assert conjugate_poly(poly(F5, "3,1")) == poly(F5, "2,1")
    assert conjugate_poly(poly(F2, "1,1,1")) == poly(F2, "1,1,1")


def test_conjugate_requires_nonzero_constant():
    with pytest.raises(ValueError):
        conjugate_poly(poly(F3, "0,1"))


def test_conjugate_is_involution_and_preserves_irreducibility():
    for field in (F2, F3, F4, F5):
        for degree in (1, 2, 3):
            for f in field.all_monic(degree):
                if f.constant_term() == 0:
                    continue
                conj = conjugate_poly(f)
                assert conjugate_poly(conj) == f
                assert is_irreducible(conj) == is_irreducible(f)


def test_self_conjugate_counts():
    assert count_self_conjugate_irreducibles(1, 3) == 2  # z-1 and z+1
    # the type C product's exponents: b_1 is q/2 for even q, (q-1)/2 for odd q; b_2 at q = 2
    assert count_self_conjugate_irreducibles(2, 2) == 1  # z^2+z+1
    assert count_self_conjugate_irreducibles(2, 3) == 1
    assert count_self_conjugate_irreducibles(2, 5) == 2
    assert count_self_conjugate_irreducibles(4, 2) == 1
    assert count_self_conjugate_irreducibles(3, 4) == 0
    assert count_self_conjugate_irreducibles(5, 9) == 0


def test_self_conjugate_counts_match_scans():
    for q, field in ((2, F2), (3, F3), (4, F4), (5, F5)):
        for n in range(1, 5):
            scanned = sum(
                1
                for f in field.irreducibles(n)
                if f.constant_term() != 0 and conjugate_poly(f) == f
            )
            assert count_self_conjugate_irreducibles(n, q) == scanned, (n, q)


# --- enumerations ------------------------------------------------------------------

def test_enumeration_cardinalities():
    for q, field in ((2, F2), (3, F3), (4, F4)):
        for n in (1, 2, 3):
            assert sum(1 for _ in monic_constant_one(field, n)) == q ** (n - 1)
            assert sum(1 for _ in palindromic_polys(field, n)) == q**n


def test_palindromic_really_palindromic():
    for f in palindromic_polys(F3, 3):
        coeffs = f.coeffs
        assert coeffs == tuple(reversed(coeffs))
        assert f.degree == 6 and f.is_monic


# --- class measures -----------------------------------------------------------------

def test_sl_measure_frozen():
    assert dict(sl_class_measure(3, 2).masses) == {
        CycleType((1, 1, 1)): Fraction(1, 4),
        CycleType((2, 1)): Fraction(1, 4),
        CycleType((3,)): Fraction(1, 2),
    }
    assert dict(sl_class_measure(3, 3).masses) == {
        CycleType((1, 1, 1)): Fraction(2, 9),
        CycleType((2, 1)): Fraction(3, 9),
        CycleType((3,)): Fraction(4, 9),
    }
    for q in (2, 3, 4, 5):
        assert dict(sl_class_measure(1, q).masses) == {CycleType((1,)): Fraction(1)}


def test_sp_measure_frozen():
    assert dict(sp_class_measure(1, 2).masses) == {
        SignedCycleType((1,), ()): Fraction(1, 2),
        SignedCycleType((), (1,)): Fraction(1, 2),
    }
    assert dict(sp_class_measure(1, 3).masses) == {
        SignedCycleType((1,), ()): Fraction(2, 3),
        SignedCycleType((), (1,)): Fraction(1, 3),
    }
    assert dict(sp_class_measure(2, 2).masses) == {
        SignedCycleType((1, 1), ()): Fraction(1, 4),
        SignedCycleType((2,), ()): Fraction(1, 4),
        SignedCycleType((1,), (1,)): Fraction(1, 4),
        SignedCycleType((), (2,)): Fraction(1, 4),
    }


def test_sp_measure_type_sizes():
    for q in (2, 3):
        for n in (1, 2, 3):
            for t in sp_class_measure(n, q).masses:
                assert t.size == n


def test_folding_rejects_odd_linear_multiplicity():
    # (z+1)(z^2+z+1) over F_2 is invariant-adjacent but not a palindromic
    # pattern the folding accepts: the linear factor appears once.
    f = poly(F2, "1,1") * poly(F2, "1,1,1")
    with pytest.raises(PalindromeFoldingError):
        fold_palindromic_factorization(factor(f))


def test_measure_independent_of_modulus_choice():
    # F_9 admits several irreducible quadratics; the counted types agree.
    alternative = make_field(3, 2, modulus=(2, 1, 1))  # z^2 + z + 2
    assert alternative.modulus != F9.modulus
    assert sl_class_measure(2, 9, field=alternative) == sl_class_measure(2, 9, field=F9)
    assert sp_class_measure(1, 9, field=alternative) == sp_class_measure(1, 9, field=F9)


def test_resolve_field_mismatch():
    with pytest.raises(ValueError):
        sl_class_measure(2, 4, field=F5)
