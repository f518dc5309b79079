"""Finite fields, factorization, the conjugation involution, class measures."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_shuffles import fq
from affine_shuffles.fq import (
    FieldContext,
    FqPoly,
    conjugate_poly,
    count_irreducibles,
    count_self_conjugate_irreducibles,
    factor,
    make_field,
    prime_power,
    sl_class_measure,
    sp_class_measure,
)
from affine_shuffles.perm import ClassMeasure, CycleType, SignedCycleType

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F9_ALT = FieldContext(3, 2, (2, 1, 1))  # z^2 + z + 2, not make_field's z^2 + 1


def poly(field, text):
    return FqPoly.from_text(field, text)


def measure_over(monkeypatch, field, measure, n):
    """``measure(n, field.q)`` over ``field``: the class measures take their
    field from ``make_field``, patched here to return it."""
    def chosen(p, e):
        assert (p, e) == (field.p, field.e)
        return field

    monkeypatch.setattr(fq, "make_field", chosen)
    return measure(n, field.q)


def is_irreducible(f):
    """Trial division by every sieved irreducible of degree up to half of f's."""
    if f.degree < 1:
        return False
    return all(
        divmod(f, g)[1].coeffs
        for d in range(1, f.degree // 2 + 1)
        for g in f.field.irreducibles(d)
    )


# --- field construction -----------------------------------------------------

def test_make_field_moduli():
    assert F4.modulus == (1, 1, 1)  # z^2 + z + 1, the unique choice
    assert F9.modulus == (1, 0, 1)  # z^2 + 1, lexicographically first
    assert F5.modulus == (0, 1)  # prime field: modulus z


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_field(4, 1)


def test_field_context_rejects_reducible_modulus():
    with pytest.raises(ValueError, match=re.escape("modulus (1, 0, 1) is reducible over F_2")):
        FieldContext(2, 2, (1, 0, 1))  # z^2 + 1 = (z+1)^2 over F_2


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(2) == (2, 1)
    assert prime_power(1031) == (1031, 1)
    assert prime_power(1009**2) == (1009, 2)
    assert prime_power(10**9 + 7) == (10**9 + 7, 1)  # trial division stops at isqrt(q)
    for q in (6, 12, 1009 * 1013, 0, 1):
        with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
            prime_power(q)


@pytest.fixture
def no_tables_or_sieve(monkeypatch):
    """A field built past this point fails at once, before any work."""
    def refuse(*args):
        raise AssertionError("built tables or sieved past FIELD_MAX_ORDER")

    monkeypatch.setattr(FieldContext, "_build_tables", refuse)
    monkeypatch.setattr(FieldContext, "irreducibles", refuse)


@pytest.mark.parametrize("call, message", [
    (lambda: make_field(2, 11), "F_2^11 has more than"),
    (lambda: make_field(1031, 1), "F_1031^1 has more than"),
    (lambda: make_field(2, 10**9), "F_2^1000000000 has more than"),
    (lambda: FieldContext(1031, 1, (0, 1)), "F_1031^1 has more than"),
    (lambda: FieldContext(2, 11, (1, 0, 1) + (0,) * 8 + (1,)), "F_2^11 has more than"),
    (lambda: sl_class_measure(1, 10**9 + 7), "F_1000000007^1 has more than"),
    (lambda: sp_class_measure(1, 2**11), "F_2^11 has more than"),
], ids=["make-2^11", "make-1031", "make-2^huge", "context-1031", "context-2^11", "sl", "sp"])
def test_fields_past_the_order_limit_are_refused_before_any_work(no_tables_or_sieve,
                                                                  call, message):
    with pytest.raises(ValueError, match=re.escape(message + " FIELD_MAX_ORDER = 1024 elements")):
        call()


def test_fields_at_the_order_limit_are_allowed(no_tables_or_sieve):
    # F_1021 gets as far as its tables and F_1024 as far as the sieve for its modulus
    assert fq.FIELD_MAX_ORDER == 1024
    for call in (lambda: FieldContext(1021, 1, (0, 1)), lambda: make_field(2, 10)):
        with pytest.raises(AssertionError, match="built tables or sieved"):
            call()


def test_field_axioms_small():
    for field in (F2, F3, F4, make_field(2, 3), F9):
        q = field.q
        for a in range(q):
            assert [field.add(a, b) for b in range(q)].count(0) == 1
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


def schoolbook_tables(p, e, modulus):
    """Addition and multiplication tables of F_p[z]/(modulus) on codes, by
    integer convolution and reduction mod the monic ``modulus``, digit by digit."""
    digits = [[c // p**i % p for i in range(e)] for c in range(p**e)]

    def code(vector):
        return sum(d * p**i for i, d in enumerate(vector))

    def times(a, b):
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for top in range(2 * e - 2, e - 1, -1):  # subtract c z^(top-e) times the modulus
            c = conv[top]
            for j, m in enumerate(modulus):
                conv[top - e + j] -= c * m
        return code(c % p for c in conv[:e])

    add = [[code((x + y) % p for x, y in zip(a, b)) for b in digits] for a in digits]
    mul = [[times(a, b) for b in digits] for a in digits]
    return add, mul


@pytest.mark.parametrize("field", [make_field(2, 2), make_field(2, 3), make_field(3, 2),
                                   make_field(2, 4), make_field(5, 2), make_field(3, 3), F9_ALT],
                         ids=lambda f: f"F{f.q}-{''.join(map(str, f.modulus))}")
def test_extension_tables_match_schoolbook_product(field):
    # The tables must be reduced by this field's own modulus: F9 and F9_ALT
    # satisfy the same axioms, so only an oracle that reads it tells them apart.
    add, mul = schoolbook_tables(field.p, field.e, field.modulus)
    assert field._add == add
    assert field._mul == mul


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_tables_are_modular_arithmetic(p):
    field = make_field(p, 1)
    for a in range(p):
        assert field._add[a] == [(a + b) % p for b in range(p)]
        assert field._mul[a] == [a * b % p for b in range(p)]
        assert field._sub[a] == [(a - b) % p for b in range(p)]
        if a:
            assert field.inv(a) == pow(a, -1, p)


# --- polynomial arithmetic ---------------------------------------------------

def test_poly_text_round_trip():
    f = poly(F2, "1,1,0,1")  # z^3 + z + 1
    assert f.to_text() == "1,1,0,1"
    assert f.degree == 3 and f.is_monic


def test_divmod_reconstructs():
    for field, f_text, g_text in (
        (F5, "1,2,3,4,1", "2,1,1"),
        (F9, "4,0,7,1,8,2,5", "3,0,2,7"),  # non-monic, a zero inner coefficient
        (F9, "1,2", "5,0,0,4"),  # deg f < deg g: quotient 0, remainder f
        (F8, "7,1,0,3,6,2,1,5", "0,6,3"),  # non-monic, zero constant term
        (F8, "3,5,1", "6"),  # constant divisor: remainder 0
    ):
        f = poly(field, f_text)
        g = poly(field, g_text)
        q, r = divmod(f, g)
        assert q * g + r == f, (field.q, f_text, g_text)
        assert r.degree < g.degree


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(poly(F9, "1,2,3"), FqPoly(F9, ()))


def test_zero_and_monic_normalization():
    z = FqPoly(F3, ())
    assert z.is_zero and z.degree == -1 and not z.is_monic
    assert FqPoly(F3, (2, 1, 0, 0)).coeffs == (2, 1)  # trailing zeros trimmed
    assert poly(F3, "2,1").is_monic and not poly(F3, "1,2").is_monic


@given(
    st.sampled_from([F4, F9]).flatmap(
        lambda field: st.tuples(st.just(field), st.lists(st.integers(0, field.q - 1), max_size=8))
    )
)
def test_poly_text_round_trip_property(case):
    field, coeffs = case
    f = FqPoly(field, tuple(coeffs))
    assert FqPoly.from_text(field, f.to_text()) == f


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


@given(
    st.sampled_from([(F4, 8), (F9, 7)]).flatmap(
        lambda pair: st.tuples(
            st.just(pair[0]),
            st.lists(st.integers(0, pair[0].q - 1), min_size=1, max_size=pair[1]),
        )
    )
)
def test_factor_product_and_irreducible_factors(case):
    field, lower = case
    f = FqPoly(field, tuple(lower) + (1,))
    fac = factor(f)
    assert fac.product() == f
    assert all(is_irreducible(g) and g.is_monic for g, _ in fac.factors)


# --- distinct-degree factorization against trial division ---------------------
#
# ``factor`` finds the product of the irreducible factors of each degree with a
# gcd and reads the sieve only to split a product of two or more.  Trial
# division by every sieved irreducible of degree up to half the remaining
# degree, which ``factor`` did before, is the oracle.

def trial_division_factors(f):
    field = f.field
    remaining = f.coeffs
    found = []
    d = 1
    while 2 * d < len(remaining):
        for g in field.irreducibles(d):
            # no factor of degree < d is left, so below degree 2d it is irreducible
            if 2 * d >= len(remaining):
                break
            mult = 0
            while True:
                quot, rem = divmod(FqPoly(field, remaining), g)
                if rem.coeffs:
                    break
                remaining = quot.coeffs
                mult += 1
            if mult:
                found.append((g, mult))
        d += 1
    if len(remaining) > 1:
        found.append((field.poly(remaining), 1))
    return tuple(sorted(found, key=lambda pair: pair[0].sort_key()))


@pytest.mark.parametrize("field, top", [(F2, 6), (F3, 6), (F4, 4), (F5, 4), (F8, 4), (F9, 4)],
                         ids=lambda value: str(getattr(value, "q", value)))
def test_factor_matches_trial_division_on_every_monic(field, top):
    for degree in range(top + 1):
        for f in field.all_monic(degree):
            assert factor(f).factors == trial_division_factors(f), f


SPLIT_GRID = ((F2, 5), (F3, 3), (F4, 2), (F5, 2), (F8, 2), (F9, 2), (F9_ALT, 2))


@pytest.mark.parametrize("field, top", SPLIT_GRID,
                         ids=[f"{field.q}-{field.modulus}" for field, _ in SPLIT_GRID])
def test_factor_splits_products_of_one_degree(field, top):
    # two or three distinct irreducibles of one degree share one gcd, which
    # only the split takes apart; unequal powers pin each multiplicity
    for d in range(1, top + 1):
        irreducibles = field.irreducibles(d)
        for chosen in (irreducibles[:2], irreducibles[-3:]):
            if len(chosen) < 2:
                continue
            for mults in [(m,) * len(chosen) for m in range(1, 5)] + [(1, 4, 2)[:len(chosen)]]:
                f = field.poly((1,))
                for g, m in zip(chosen, mults):
                    for _ in range(m):
                        f = f * g
                assert factor(f).factors == tuple(zip(chosen, mults)), (d, mults)


def test_factor_of_an_irreducible_sieves_nothing(monkeypatch):
    def refuse(field, degree):
        raise AssertionError(f"factor read the degree-{degree} sieve over F_{field.q}")

    monkeypatch.setattr(FieldContext, "irreducibles", refuse)
    # the benchmark stream's degree-24 irreducible over F_2 and degree-14 one over F_3
    for p, coeffs in (
        (2, (1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1)),
        (3, (1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0, 1)),
    ):
        f = make_field(p, 1).poly(coeffs)
        assert factor(f).factors == ((f, 1),)


# --- the size of a walk's table ----------------------------------------------------

@pytest.fixture
def no_allocation(cold_caches, monkeypatch):
    """Cold caches, so that no lower degree is sieved first; then ``bytearray``
    in ``fq`` records the size asked for and allocates nothing, so that a
    missing guard fails at once instead of allocating gigabytes.  F_2 and F_9
    are built before that: building F_9 sieves the quadratics over F_3."""
    make_field(2, 1), make_field(3, 2)
    sizes = []

    def record(size):
        sizes.append(size)
        raise MemoryError(f"asked for {size:,} bytes")

    monkeypatch.setattr(fq, "bytearray", record, raising=False)
    return sizes


def test_table_at_the_limit_is_allowed(no_allocation):
    with pytest.raises(MemoryError):
        fq._Products(F2, 24, 24, first=0)
    assert no_allocation == [fq.TABLE_MAX_ENTRIES]


@pytest.mark.parametrize("call, message", [
    (lambda: make_field(2, 1).irreducibles(25),
     "degree 25 over F_2 needs a table of 2^25 = 33,554,432 entries"),
    (lambda: make_field(3, 2).irreducibles(10),
     "degree 10 over F_9 needs a table of 9^10 = 3,486,784,401 entries"),
    (lambda: sl_class_measure(12, 9),
     "degree 12 over F_9 needs a table of 9^11 = 31,381,059,609 entries"),
    (lambda: sp_class_measure(8, 9),
     "degree 16 over F_9 needs a table of 9^8 = 43,046,721 entries"),
], ids=["sieve-2", "sieve-9", "sl", "sp"])
def test_tables_past_the_limit_are_refused_before_any_work(no_allocation, call, message):
    with pytest.raises(ValueError, match=re.escape(message + ", more than 16,777,216")):
        call()
    assert no_allocation == []


def test_factor_refuses_a_split_past_the_table_limit(no_allocation):
    # two irreducibles of degree 10 over F_9: splitting their product needs
    # the degree-10 sieve, which is refused
    field = make_field(3, 2)
    f = field.poly((2, 1, 4, 1, 7, 7, 7, 6, 3, 1, 1))
    f = f * field.poly((3, 5, 1, 4, 1, 7, 1, 5, 3, 6, 1))
    with pytest.raises(ValueError, match=re.escape("degree 10 over F_9 needs a table")):
        factor(f)


def test_factor_matches_sympy_for_prime_q():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2001)
    for p in (2, 3, 5, 7):
        field = make_field(p, 1)
        for _ in range(50):
            lower = [rng.randrange(p) for _ in range(rng.randint(1, 10))]
            f = FqPoly(field, tuple(lower) + (1,))
            _, expected = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
            assert sorted(
                (tuple(c % p for c in reversed(g.all_coeffs())), m) for g, m in expected
            ) == sorted((g.coeffs, m) for g, m in factor(f).factors), f


# --- the sieve ---------------------------------------------------------------------
#
# ``FieldContext.irreducibles`` marks every product of irreducibles of lower
# degree with the class measures' walk; the class measures and ``factor`` then
# read its output, so the oracles below reach the irreducibles another way.

def corrupt_sieve(monkeypatch, degree, corrupt):
    """``FieldContext.irreducibles`` returns ``corrupt(field, sound output)``
    at ``degree``; the sieve reads its lower degrees through it."""
    sound = FieldContext.irreducibles

    def faulty(field, d):
        found = sound(field, d)
        return corrupt(field, found) if d == degree else found

    monkeypatch.setattr(FieldContext, "irreducibles", faulty)


def test_sieve_guard_rejects_a_wrong_count(cold_caches, monkeypatch):
    # without z + 3 the 6 * 7 / 2 products of the other linears leave 28 quadratics
    corrupt_sieve(monkeypatch, 1, lambda field, found: tuple(g for g in found
                                                             if g.coeffs != (3, 1)))
    with pytest.raises(ArithmeticError, match=re.escape(
            "degree 2 over F_7: sieve found 28 irreducibles, Gauss's count is 21")):
        make_field(7, 1).irreducibles(2)


def test_sieve_guard_rejects_a_repeated_product(cold_caches, monkeypatch):
    # z^2 passed off as irreducible: z * z^2 and z * z * z are both z^3
    corrupt_sieve(monkeypatch, 2, lambda field, found: (field.poly((0, 0, 1)),) + found[1:])
    with pytest.raises(ArithmeticError, match=re.escape(
            "degree 3 over F_7: product [0, 0, 0, 1] repeats")):
        make_field(7, 1).irreducibles(3)


def test_cold_caches_reach_the_sieve(request, monkeypatch):
    warm = make_field(7, 1).irreducibles(2)
    assert len(warm) == 21
    request.getfixturevalue("cold_caches")
    sound = fq.count_irreducibles
    monkeypatch.setattr(fq, "count_irreducibles", lambda n, q: sound(n, q) + 1)
    # a warm field or sieve would return the warm quadratics unchecked
    with pytest.raises(ArithmeticError, match=re.escape(
            "degree 1 over F_7: sieve found 7 irreducibles, Gauss's count is 8")):
        make_field(7, 1).irreducibles(2)


def test_sieve_does_not_test_irreducibility(cold_caches, monkeypatch):
    def refuse(field, a, dv):
        raise AssertionError(f"the sieve divided {a!r} by {dv!r}")

    monkeypatch.setattr(fq, "_long_division", refuse)
    field = make_field(3, 1)
    for degree in range(1, 7):
        assert len(field.irreducibles(degree)) == count_irreducibles(degree, 3)


def scanned_irreducibles(field, degree):
    """Monic irreducibles of the degree by dividing each candidate by every
    monic polynomial of degree 1..degree // 2; reads no cache."""
    divisors = [g for d in range(1, degree // 2 + 1) for g in field.all_monic(d)]
    return tuple(f for f in field.all_monic(degree)
                 if all(divmod(f, g)[1].coeffs for g in divisors))


SCAN_GRID = ((F2, 10), (F3, 6), (F4, 5), (F5, 4), (F7, 3), (F8, 3), (F9, 3), (F9_ALT, 3))


@pytest.mark.parametrize("field, top", SCAN_GRID,
                         ids=[f"{field.q}-{field.modulus}" for field, _ in SCAN_GRID])
def test_sieve_matches_division_by_every_monic(field, top):
    for degree in range(1, top + 1):
        assert field.irreducibles(degree) == scanned_irreducibles(field, degree), degree


@pytest.mark.parametrize("p, e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_field_context_accepts_exactly_the_irreducible_moduli(p, e):
    prime = make_field(p, 1)
    irreducible = scanned_irreducibles(prime, e)
    for f in prime.all_monic(e):
        if f in irreducible:
            assert FieldContext(p, e, f.coeffs).modulus == f.coeffs
        else:
            with pytest.raises(ValueError, match=re.escape(f"modulus {f.coeffs} is reducible")):
                FieldContext(p, e, f.coeffs)


def test_sieve_matches_sympy():
    # Asking sympy about every candidate takes about 20 s.  Gauss's count of
    # distinct polynomials, each irreducible by sympy, pins the output as well,
    # and the order is that of ``all_monic``: coefficients compared low first.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for field, top in ((F2, 14), (F3, 8)):
        for degree in range(1, top + 1):
            found = field.irreducibles(degree)
            assert len(found) == count_irreducibles(degree, field.q)
            keys = [g.coeffs for g in found]
            assert keys == sorted(set(keys)), (field.q, degree)
            for g in found:
                assert sympy.Poly(list(reversed(g.coeffs)), x, modulus=field.p).is_irreducible, g


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


def test_measure_independent_of_modulus_choice(monkeypatch):
    # F_9 admits several irreducible quadratics; the counted types agree.
    assert F9_ALT.modulus != F9.modulus
    for measure, n in ((sl_class_measure, 2), (sp_class_measure, 1)):
        assert (measure_over(monkeypatch, F9_ALT, measure, n)
                == measure_over(monkeypatch, F9, measure, n))


@pytest.mark.parametrize("measure", [sl_class_measure, sp_class_measure])
@pytest.mark.parametrize("n", [0, -1])
def test_class_measures_reject_nonpositive_n(measure, n):
    with pytest.raises(ValueError, match="^n must be positive$"):
        measure(n, 3)


# --- the factoring route, kept as an oracle for the class measures --------------
#
# The class measures build each reducible polynomial once as a product of
# irreducibles.  The route below factors every polynomial by distinct degrees
# instead and folds the factorization; it shares ``factor`` and
# ``conjugate_poly`` with the library's measures.  ``factor`` reads the sieved
# irreducibles, which the measures read too, only to split a product of two
# or more irreducibles of one degree.  The sieve is pinned by its own oracles
# above.

class PalindromeFoldingError(ValueError):
    """A palindromic factorization violated the expected folding conventions."""


def monic_constant_one(field, n):
    """All q^{n-1} monic degree-n polynomials with constant term 1."""
    for middle in itertools.product(range(field.q), repeat=n - 1):
        yield field.poly((1,) + middle + (1,))


def palindromic_polys(field, n):
    """All q^n monic degree-2n palindromic polynomials."""
    for half in itertools.product(range(field.q), repeat=n):
        yield field.poly((1,) + half[: n - 1] + (half[n - 1],) + tuple(reversed(half[: n - 1])) + (1,))


def fold_palindromic_factorization(fact):
    """Fold the factorization of a palindromic polynomial into (lam, mu).

    A conjugate pair {phi, conj(phi)} of degree-i irreducibles with common
    multiplicity m contributes m parts i to lam.  A self-conjugate irreducible
    of even degree 2j with multiplicity m contributes m mod 2 parts j to mu
    and floor(m/2) parts 2j to lam.  The self-conjugate linears z -/+ 1 must
    occur with even multiplicity m and contribute m/2 parts 1 to lam.
    """
    lam, mu = [], []
    mults = {poly: mult for poly, mult in fact.factors}
    seen = set()
    for poly, mult in fact.factors:
        if poly in seen:
            continue
        conj = conjugate_poly(poly)
        if conj == poly:
            if poly.degree == 1:
                if mult % 2:
                    raise PalindromeFoldingError(
                        f"self-conjugate linear {poly!r} has odd multiplicity {mult}"
                    )
                lam.extend([1] * (mult // 2))
            elif poly.degree % 2 == 0:
                mu.extend([poly.degree // 2] * (mult % 2))
                lam.extend([poly.degree] * (mult // 2))
            else:
                raise PalindromeFoldingError(
                    f"self-conjugate irreducible of odd degree > 1: {poly!r}"
                )
            seen.add(poly)
        else:
            if mults.get(conj) != mult:
                raise PalindromeFoldingError(f"conjugate multiplicities differ for {poly!r}")
            lam.extend([poly.degree] * mult)
            seen.add(poly)
            seen.add(conj)
    return SignedCycleType(tuple(sorted(lam, reverse=True)), tuple(sorted(mu, reverse=True)))


def factored_measure(kind, n, field):
    polys = monic_constant_one(field, n) if kind == "sl" else palindromic_polys(field, n)
    counts = {}
    for f in polys:
        fact = factor(f)
        if kind == "sl":
            t = CycleType(tuple(sorted((g.degree for g, m in fact.factors for _ in range(m)),
                                       reverse=True)))
        else:
            t = fold_palindromic_factorization(fact)
        counts[t] = counts.get(t, 0) + 1
    total = sum(counts.values())
    assert total == field.q ** (n - 1 if kind == "sl" else n)
    return ClassMeasure.from_counts(counts, total)


def test_folding_rejects_odd_linear_multiplicity():
    # (z+1)(z^2+z+1) over F_2 is invariant-adjacent but not a palindromic
    # pattern the folding accepts: the linear factor appears once.
    f = poly(F2, "1,1") * poly(F2, "1,1,1")
    with pytest.raises(PalindromeFoldingError):
        fold_palindromic_factorization(factor(f))


# Factoring and folding take about 0.07 ms a polynomial (sl(5, 9): 6,561 in
# 0.43 s); the grid stops at 10,000 polynomials of type A and 1,000 of type C.
ORACLE_FIELDS = (F2, F3, F4, F5, F7, F8, F9)
ORACLE_GRID = (
    [("sl", n, field) for field in ORACLE_FIELDS for n in range(1, 7)
     if field.q ** (n - 1) <= 10_000]
    + [("sp", n, field) for field in ORACLE_FIELDS for n in range(1, 5) if field.q**n <= 1_000]
    + [("sl", n, F9_ALT) for n in range(1, 5)]
    + [("sp", n, F9_ALT) for n in range(1, 4)]
)


@pytest.mark.parametrize(
    "kind, n, field", ORACLE_GRID,
    ids=[f"{kind}-{n}-{field.q}-{field.modulus}" for kind, n, field in ORACLE_GRID],
)
def test_class_measures_match_trial_division(monkeypatch, kind, n, field):
    measure = sl_class_measure if kind == "sl" else sp_class_measure
    assert measure_over(monkeypatch, field, measure, n) == factored_measure(kind, n, field)


# --- the walk's own checks -------------------------------------------------------

def test_self_conjugates_are_the_palindromes_left_over():
    for field in (F2, F3, F4, F5):
        for degree in (2, 4, 6):
            scanned = [g for g in field.irreducibles(degree)
                       if g.constant_term() and conjugate_poly(g) == g]
            assert list(fq._self_conjugates(field, degree)) == scanned, (field.q, degree)


def test_type_a_walk_catches_a_dropped_block(cold_caches, monkeypatch):
    # the 4 products of a linear block with the dropped quadratic go missing
    corrupt_sieve(monkeypatch, 2, lambda field, found: found[1:])
    with pytest.raises(ArithmeticError, match=re.escape(
            "degree 3 over F_5: 44 polynomials with nonzero constant term are not "
            "products, Gauss's count without z is 40")):
        sl_class_measure(3, 5)


def test_type_c_walk_catches_a_dropped_self_conjugate(cold_caches, monkeypatch):
    sound = fq._palindromic_types

    def faulty(field, n):
        counts, left = sound(field, n)
        return (counts, left[1:]) if n == 1 else (counts, left)

    monkeypatch.setattr(fq, "_palindromic_types", faulty)
    with pytest.raises(ArithmeticError, match=re.escape(
            "degree 4 over F_5: 11 palindromes are not products, "
            "the self-conjugate count is 6")):
        sp_class_measure(2, 5)


def zero(field, c):
    return 0


def plus_one(field, c):
    return field.add(c, 1)


@pytest.mark.parametrize("measure, n, degree, index, wrong, message", [
    (sl_class_measure, 3, 3, 1, zero, "degree 3 over F_5: product [1, 0, 2, 1] repeats"),
    (sl_class_measure, 3, 3, 0, plus_one,
     "degree 3 over F_5: product [2, 2, 2, 1] has constant term 2, not 1"),
    # The type C blocks of degree 4 are sound, so the guard sees a corrupted
    # product of blocks, the first being (z + 1)^2 (z + 1)^2.
    (sp_class_measure, 2, 4, 1, plus_one,
     "degree 4 over F_5: product [1, 0, 1, 4, 1] is not palindromic"),
])
def test_walk_catches_a_wrong_product_coefficient(cold_caches, monkeypatch, measure, n, degree,
                                                  index, wrong, message):
    sound_times, sound_walk = fq._times, fq._block_walk

    def faulty(field, a, b):
        out = sound_times(field, a, b)
        if len(a) > 1 and len(out) == degree + 1:  # two or more blocks, of the full degree
            out[index] = wrong(field, out[index])
        return out

    def corrupting_walk(field, blocks, target, *single):
        # The blocks of the walk of the full degree are built by now, so
        # only the products this walk makes are corrupted.
        if target == degree:
            monkeypatch.setattr(fq, "_times", faulty)
        return sound_walk(field, blocks, target, *single)

    monkeypatch.setattr(fq, "_block_walk", corrupting_walk)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        measure(n, 5)
