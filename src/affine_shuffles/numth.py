"""Number-theoretic kernels, all in exact integer arithmetic.

Nothing here touches floating point: Ramanujan sums go through the divisor
formula, q-binomials are integer polynomials built from the Pascal-type
recurrence, and necklace counts come from exact polynomial coefficient
extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "IntPolynomial",
    "power",
    "mobius",
    "divisors",
    "binomial",
    "ramanujan_sum",
    "von_sterneck",
    "q_binomial",
    "bounded_partition_count",
    "aperiodic_necklaces_with_sum",
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


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients indexed by exponent, trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        trimmed = list(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, exponent: int) -> int:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def __pow__(self, exponent: int) -> "IntPolynomial":
        return power(self, exponent, IntPolynomial((1,)))

    def shift(self, amount: int) -> "IntPolynomial":
        return IntPolynomial((0,) * amount + self.coeffs)


@lru_cache(maxsize=1024)
def q_binomial(a: int, b: int) -> IntPolynomial:
    """Gaussian binomial coefficient as a polynomial in q.

    Built from the recurrence qb(a, b) = qb(a-1, b-1) + q^b qb(a-1, b), which
    keeps everything in nonnegative integers.  Degree is b(a-b).

    >>> q_binomial(4, 2).coeffs
    (1, 1, 2, 1, 1)
    """
    if b < 0 or b > a:
        raise ValueError(f"require 0 <= b <= a, got a={a} b={b}")
    if b == 0 or b == a:
        return IntPolynomial((1,))
    return q_binomial(a - 1, b - 1) + q_binomial(a - 1, b).shift(b)


def bounded_partition_count(max_parts: int, max_part: int, modulus: int, residue: int) -> int:
    """Partitions with at most ``max_parts`` parts, each at most ``max_part``,
    whose size is congruent to ``residue`` mod ``modulus``.

    The generating function for partitions in an a-by-b box is the Gaussian
    binomial qb(a+b, a), so this is a coefficient-residue sum.  Negative box
    dimensions admit no partitions at all (not even the empty one): the
    closed-form measures need that reading for k below the cyclic descent
    number.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if max_parts < 0 or max_part < 0:
        return 0
    poly = q_binomial(max_parts + max_part, max_parts)
    r = residue % modulus
    return sum(c for e, c in enumerate(poly.coeffs) if e % modulus == r)


def _necklace_content_poly(k: int, d: int, copies: int) -> IntPolynomial:
    # (1 + z^d + z^{2d} + ... + z^{(k-1)d}) ** copies, exactly.
    base = [0] * ((k - 1) * d + 1)
    for j in range(k):
        base[j * d] = 1
    return IntPolynomial(tuple(base)) ** copies


def aperiodic_necklaces_with_sum(k: int, i: int, m: int) -> int:
    """Aperiodic necklaces of size i over {0..k-1} with total symbol sum m.

    Moebius sum (1/i) sum_{d|i} mu(d) f(m, k, i, d), where f is the coefficient
    of z^m in ((z^{kd}-1)/(z^d-1))^{i/d}.

    >>> aperiodic_necklaces_with_sum(2, 3, 1)
    1
    >>> aperiodic_necklaces_with_sum(2, 3, 0)
    0
    """
    if k < 1 or i < 1:
        raise ValueError("k and i must be positive")
    total = 0
    for d in divisors(i):
        mu = mobius(d)
        if mu == 0:
            continue
        total += mu * _necklace_content_poly(k, d, i // d).coefficient(m)
    count, rem = divmod(total, i)
    if rem != 0 or count < 0:
        raise ArithmeticError(f"necklace Moebius sum not divisible: k={k} i={i} m={m}")
    return count
