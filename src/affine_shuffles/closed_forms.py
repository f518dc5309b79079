"""Closed-form coefficients of the affine k-shuffle elements.

Type A has three expressions for the coefficient of w, all in terms of the
cyclic descent number cd(w) and the major index maj(w), selected by
``method``:

1. partitions with at most n-1 parts, each at most k - cd(w), of size
   congruent to -maj(w) mod n, divided by k^{n-1}; this is a residue sum of
   the coefficients of the Gaussian binomial ``q_binomial(k+n-cd-1, n-1)``;
2. the transposed count (at most k - cd(w) parts, each at most n-1), equal
   to method 1 only by the symmetry of the q-binomial;
4. a Ramanujan-sum expression via the von Sterneck count, with two special
   branches at k = cd(w).

``method=3`` is an alias of method 1, kept because the benchmark calls it.
With the per-element alcove count ``cellini.x_k_type_a_lattice`` these are
the type A routes to x_k(w), and they rest on three independent arguments:
the partition count, the von Sterneck/Ramanujan sum, and the alcove count.

Type C has a single binomial formula, split by the parity of k, in terms of
the descent number d(w) (k odd) or the cyclic descent number cd(w) (k even).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .numth import binomial, bounded_partition_count, von_sterneck
from .perm import (
    GroupAlgebraElement,
    GroupKind,
    Permutation,
    SignedPermutation,
    all_permutations,
    all_signed_permutations,
    type_a_stats,
    type_c_stats,
)

__all__ = [
    "x_k_type_a",
    "x_k_type_c",
    "x_k_measure_type_a",
    "x_k_measure_type_c",
]


def x_k_type_a(w: Permutation, k: int, method: int = 1) -> Fraction:
    """Coefficient of w in the type A affine k-shuffle, by one of three routes
    (``method`` 1, 2 or 4; 3 is an alias of 1)."""
    if k < 1:
        raise ValueError("k must be positive")
    n = w.n
    stats = type_a_stats(w)
    cd, maj = stats.cd, stats.maj
    denom = k ** (n - 1)
    if method in (1, 3):
        return Fraction(bounded_partition_count(n - 1, k - cd, n, -maj), denom)
    if method == 2:
        return Fraction(bounded_partition_count(k - cd, n - 1, n, -maj), denom)
    if method == 4:
        if k - cd > 0:
            return Fraction(von_sterneck(n, k - cd, -maj), denom)
        if k - cd == 0 and maj % n == 0:
            return Fraction(1, denom)
        return Fraction(0)
    raise ValueError(f"method must be 1, 2, 3 or 4, got {method!r}")


def x_k_type_c(w: SignedPermutation, k: int) -> Fraction:
    """Coefficient of w in the type C affine k-shuffle.

    (1/k^n) * binom((k-1)/2 + n - d(w), n) for odd k,
    (1/k^n) * binom(k/2 + n - cd(w), n) for even k,
    with the binomial vanishing when its upper index drops below n.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = w.n
    stats = type_c_stats(w)
    if k % 2:
        upper = (k - 1) // 2 + n - stats.d
    else:
        upper = k // 2 + n - stats.cd
    return Fraction(binomial(upper, n), k**n)


@lru_cache(maxsize=None)
def x_k_measure_type_a(n: int, k: int, method: int = 1) -> GroupAlgebraElement:
    """The whole type A element, from the chosen closed form."""
    coeffs = {w: x_k_type_a(w, k, method) for w in all_permutations(n)}
    return GroupAlgebraElement.probability(GroupKind("A", n), coeffs)


@lru_cache(maxsize=None)
def x_k_measure_type_c(n: int, k: int) -> GroupAlgebraElement:
    """The whole type C element, from the binomial closed form."""
    coeffs = {w: x_k_type_c(w, k) for w in all_signed_permutations(n)}
    return GroupAlgebraElement.probability(GroupKind("C", n), coeffs)
