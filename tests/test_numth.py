"""Number-theoretic kernels against brute-force oracles."""

import cmath
import doctest
import itertools
import math

import pytest

import affine_shuffles.numth as numth
from affine_shuffles.numth import (
    IntPolynomial,
    aperiodic_necklaces_with_sum,
    binomial,
    bounded_partition_count,
    divisors,
    mobius,
    q_binomial,
    ramanujan_sum,
    von_sterneck,
)


# --- oracles -----------------------------------------------------------------

def brute_von_sterneck(m, k, n):
    """Count multisets of k residues mod m with sum congruent to n."""
    return sum(
        1
        for combo in itertools.combinations_with_replacement(range(m), k)
        if sum(combo) % m == n % m
    )


def brute_partitions_in_box(max_parts, max_part):
    """All partitions with <= max_parts parts, each <= max_part."""
    def rec(remaining_parts, bound):
        yield ()
        if remaining_parts == 0:
            return
        for first in range(1, bound + 1):
            for rest in rec(remaining_parts - 1, first):
                yield (first,) + rest

    return list(rec(max_parts, max_part))


def brute_aperiodic_necklaces(k, i, m):
    """Rotation classes of aperiodic length-i words over 0..k-1 with sum m."""
    seen = set()
    count = 0
    for word in itertools.product(range(k), repeat=i):
        if word in seen or sum(word) != m:
            continue
        rotations = {word[r:] + word[:r] for r in range(i)}
        seen.update(rotations)
        if len(rotations) == i:  # aperiodic
            count += 1
    return count


def exponential_ramanujan(m, n):
    """Root-of-unity definition, for cross-checking the divisor formula."""
    total = sum(
        cmath.exp(2j * cmath.pi * k * n / m)
        for k in range(1, m + 1)
        if math.gcd(k, m) == 1
    )
    assert abs(total.imag) < 1e-9
    return total.real


# --- tests ---------------------------------------------------------------------

def test_doctests():
    failures, attempted = doctest.testmod(numth)
    assert failures == 0
    assert attempted >= 7


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(2) == -1
    assert mobius(4) == 0
    assert mobius(30) == -1
    with pytest.raises(ValueError):
        mobius(0)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(28) == [1, 2, 4, 7, 14, 28]


def test_binomial_guard():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0


def test_ramanujan_examples():
    assert ramanujan_sum(1, 0) == 1
    assert ramanujan_sum(2, 1) == -1
    assert ramanujan_sum(3, 0) == 2


def test_ramanujan_matches_exponential_sum():
    for m in range(1, 13):
        for n in range(-4, 13):
            assert abs(ramanujan_sum(m, n) - exponential_ramanujan(m, n)) < 1e-9


def test_von_sterneck_examples():
    assert von_sterneck(2, 3, 0) == 2  # {0,0,0}, {0,1,1}
    assert von_sterneck(2, 2, 1) == 1  # {0,1}
    assert von_sterneck(3, 2, 0) == 2  # {0,0}, {1,2}


def test_von_sterneck_against_brute_force():
    for m in range(1, 9):
        for k in range(1, 9):
            for n in range(m):
                assert von_sterneck(m, k, n) == brute_von_sterneck(m, k, n), (m, k, n)


def test_von_sterneck_negative_target():
    assert von_sterneck(5, 3, -2) == von_sterneck(5, 3, 3)


def test_q_binomial_examples():
    assert q_binomial(2, 1).coeffs == (1, 1)
    assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert q_binomial(4, 2) == q_binomial(4, 4 - 2)
    with pytest.raises(ValueError):
        q_binomial(2, 3)


def test_q_binomial_at_one_and_degree():
    for a in range(9):
        for b in range(a + 1):
            poly = q_binomial(a, b)
            assert sum(poly.coeffs) == math.comb(a, b)  # the value at q = 1
            assert poly.degree == b * (a - b)


def test_bounded_partition_examples():
    assert bounded_partition_count(2, 2, 3, 0) == 2  # {}, (2,1)
    assert bounded_partition_count(0, 0, 1, 0) == 1  # empty partition
    assert bounded_partition_count(2, 2, 1, 0) == 6  # everything in the box


def test_bounded_partition_negative_box_is_empty():
    assert bounded_partition_count(2, -1, 3, 0) == 0
    assert bounded_partition_count(-1, 2, 3, 0) == 0


def test_bounded_partition_against_enumeration():
    for a in range(5):
        for b in range(5):
            box = brute_partitions_in_box(a, b)
            for n in range(1, 5):
                for r in range(n):
                    expected = sum(1 for p in box if sum(p) % n == r)
                    assert bounded_partition_count(a, b, n, r) == expected, (a, b, n, r)


def test_necklace_examples():
    assert aperiodic_necklaces_with_sum(2, 3, 1) == 1  # 001
    assert aperiodic_necklaces_with_sum(2, 3, 0) == 0  # 000 is periodic
    # total over m equals the number of degree-3 binary aperiodic necklaces
    assert sum(aperiodic_necklaces_with_sum(2, 3, m) for m in range(4)) == 2


def test_necklaces_against_brute_force():
    for k in (2, 3):
        for i in range(1, 6):
            for m in range((k - 1) * i + 1):
                assert aperiodic_necklaces_with_sum(k, i, m) == brute_aperiodic_necklaces(
                    k, i, m
                ), (k, i, m)


def test_necklace_totals_match_moebius_count():
    for k in range(1, 9):
        for i in range(1, 9):
            total = sum(
                aperiodic_necklaces_with_sum(k, i, m) for m in range((k - 1) * i + 1)
            )
            closed = sum(mobius(d) * k ** (i // d) for d in divisors(i)) // i
            assert total == closed


def test_int_polynomial_arithmetic():
    p = IntPolynomial((1, 1))
    assert (p * p).coeffs == (1, 2, 1)
    assert (p**3).coeffs == (1, 3, 3, 1)
    assert (p**0).coeffs == (1,)
    with pytest.raises(ValueError):
        p**-1
    assert (p + IntPolynomial((-1, -1))).coeffs == ()
    assert p.shift(2).coeffs == (0, 0, 1, 1)
    assert IntPolynomial((0, 0)).degree == -1
