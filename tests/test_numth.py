"""Number-theoretic kernels against brute-force oracles."""

import cmath
import doctest
import itertools
import math

import pytest

import affine_shuffles.numth as numth
from affine_shuffles.numth import (
    binomial,
    bounded_partition_count,
    divisors,
    mobius,
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


def test_bounded_partition_examples():
    assert bounded_partition_count(2, 2, 3, 0) == 2  # {}, (2,1)
    assert bounded_partition_count(0, 0, 1, 0) == 1  # empty partition
    assert bounded_partition_count(2, 2, 1, 0) == 6  # everything in the box
    with pytest.raises(ValueError, match="modulus must be positive"):
        bounded_partition_count(2, 2, 0, 0)


def test_bounded_partition_negative_box_is_empty():
    assert bounded_partition_count(2, -1, 3, 0) == 0
    assert bounded_partition_count(-1, 2, 3, 0) == 0


def test_bounded_partition_against_enumeration():
    # moduli up to 8 take rotations by i >= m; residues from -m cover negatives
    for a in range(7):
        for b in range(7):
            box = brute_partitions_in_box(a, b)
            for n in range(1, 9):
                for r in range(-n, n):
                    expected = sum(1 for p in box if (sum(p) - r) % n == 0)
                    assert bounded_partition_count(a, b, n, r) == expected, (a, b, n, r)


def test_bounded_partition_transposition_symmetry():
    # closed-form method 2 counts method 1's box transposed
    for a in range(-1, 10):
        for b in range(-1, 10):
            for n in range(1, 11):
                for r in range(n):
                    assert bounded_partition_count(a, b, n, r) == bounded_partition_count(
                        b, a, n, r
                    ), (a, b, n, r)


def test_bounded_partition_residues_sum_to_binomial():
    # the Gaussian binomial at q = 1: every partition in the box, once
    a, b, n = 51, 40, 52
    residues = [bounded_partition_count(a, b, n, r) for r in range(n)]
    assert sum(residues) == math.comb(a + b, a)
