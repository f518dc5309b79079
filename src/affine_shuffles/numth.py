"""Number-theoretic kernels, all in exact integer arithmetic.

Nothing here touches floating point: Ramanujan sums go through the divisor
formula, von Sterneck counts are divided exactly, and the partitions in a box
are counted by size mod m with the Gaussian recurrence reduced mod z^m - 1,
so the table has m entries however large the box.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

__all__ = [
    "power",
    "mobius",
    "divisors",
    "binomial",
    "ramanujan_sum",
    "von_sterneck",
    "bounded_partition_count",
]


def power(base, exponent: int, one):
    """``base`` to a nonnegative integer power by square-and-multiply.

    ``one`` is the multiplicative identity of ``base``'s ring; only ``*`` is used.
    """
    if exponent < 0:
        raise ValueError("negative exponent")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    if n <= 0:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=1024)
def mobius(n: int) -> int:
    """Moebius function by the squarefree sign rule.

    >>> [mobius(n) for n in range(1, 11)]
    [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    """
    if n <= 0:
        raise ValueError("n must be positive")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def binomial(a: int, b: int) -> int:
    """Binomial coefficient extended by 0 outside 0 <= b <= a.

    A negative upper index yields 0 rather than the signed generalized value;
    the closed-form measures rely on that convention.
    """
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def ramanujan_sum(m: int, n: int) -> int:
    """Ramanujan sum C_m(n): sum of e^{2 pi i k n / m} over k coprime to m.

    Evaluated exactly as sum_{d | gcd(m,n)} d * mobius(m/d); the exponential
    form is used only as a test oracle.

    >>> ramanujan_sum(1, 0), ramanujan_sum(2, 1), ramanujan_sum(3, 0)
    (1, -1, 2)
    """
    if m < 1:
        raise ValueError("m must be positive")
    g = math.gcd(m, abs(n))
    return sum(d * mobius(m // d) for d in divisors(g) if m % d == 0)


def von_sterneck(m: int, k: int, n: int) -> int:
    """Number of multisets of k residues mod m with sum congruent to n.

    Uses the Ramanujan-sum formula
    (1/m) sum_{d | gcd(m,k)} binom((m+k-d)/d, k/d) * C_d(n).

    >>> von_sterneck(2, 3, 0), von_sterneck(2, 2, 1), von_sterneck(3, 2, 0)
    (2, 1, 2)
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    total = 0
    for d in divisors(math.gcd(m, k)):
        total += binomial((m + k - d) // d, k // d) * ramanujan_sum(d, n)
    count, rem = divmod(total, m)
    if rem != 0 or count < 0:
        raise ArithmeticError(f"von Sterneck sum not divisible: m={m} k={k} n={n}")
    return count


@lru_cache(maxsize=1024)
def _box_residues(a: int, b: int, m: int) -> tuple[int, ...]:
    # Entry r counts the partitions in an a-by-b box of size = r mod m, by
    # the Gaussian recurrence P(i, j) = P(i-1, j) + z^i P(i, j-1) in
    # Z[z]/(z^m - 1), where z^i rotates the tuple by i mod m.  Row j holds
    # P(0..a, j); only the previous row is kept.
    unit = (1,) + (0,) * (m - 1)
    row = [unit] * (a + 1)
    for _ in range(b):
        new = [unit]
        for i in range(1, a + 1):
            s = i % m
            prev = row[i]
            new.append(tuple(map(operator.add, new[-1], prev[-s:] + prev[:-s])))
        row = new
    return row[a]


def bounded_partition_count(max_parts: int, max_part: int, modulus: int, residue: int) -> int:
    """Partitions with at most ``max_parts`` parts, each at most ``max_part``,
    whose size is congruent to ``residue`` mod ``modulus``.

    The generating function for partitions in an a-by-b box is the Gaussian
    binomial qb(a+b, a); its coefficients are summed by residue as it is
    built, so no polynomial of degree ab is formed.  Negative box dimensions
    admit no partitions at all (not even the empty one): the closed-form
    measures need that reading for k below the cyclic descent number.

    >>> bounded_partition_count(2, 2, 3, 0)  # (), (2, 1)
    2
    >>> [bounded_partition_count(2, 3, 4, r) for r in range(4)]
    [3, 2, 3, 2]
    >>> bounded_partition_count(2, -1, 3, 0)
    0
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if max_parts < 0 or max_part < 0:
        return 0
    return _box_residues(max_parts, max_part, modulus)[residue % modulus]
