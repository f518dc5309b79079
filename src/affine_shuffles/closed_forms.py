"""Closed-form coefficients of the affine k-shuffle elements.

Type A has two expressions for the coefficient of w, both in terms of the
cyclic descent number cd(w) and the major index maj(w), selected by
``method``:

1. partitions with at most n-1 parts, each at most k - cd(w), of size
   congruent to -maj(w) mod n, divided by k^{n-1}; ``bounded_partition_count``
   counts the box by size mod n, in n integers however large k is;
4. a Ramanujan-sum expression via the von Sterneck count, with two special
   branches at k = cd(w), exact and O(1) in k.

``method`` 2 and 3 are aliases of method 1, kept because the benchmark calls
them.  With the per-element alcove count ``cellini.x_k_type_a_lattice``
these are the type A routes to x_k(w), and they rest on three independent
arguments: the partition count, the von Sterneck/Ramanujan sum, and the
alcove count.

Type C has a single binomial formula, split by the parity of k, in terms of
the descent number d(w) (k odd) or the cyclic descent number cd(w) (k even).

Each formula reads w only through its cyclic descent set Cdes(w), from
``perm.cyclic_descents``: cd(w) is the size of that set, d(w) its size
without the affine marker 0, and maj(w) its sum.  So the whole-group
measures evaluate the formula once per class of ``perm.descent_classes``,
on the class's first element, and copy the value to the class's members
through ``GroupAlgebraElement.probability_per_class``; the index keys its
classes without calling ``cyclic_descents``, and the formulas never read the
index's Cdes.
"""

from __future__ import annotations

from fractions import Fraction

from .numth import binomial, bounded_partition_count, von_sterneck
from .perm import (
    GroupAlgebraElement,
    GroupKind,
    Permutation,
    SignedPermutation,
    cyclic_descents,
)

__all__ = [
    "x_k_type_a",
    "x_k_type_c",
    "x_k_measure_type_a",
    "x_k_measure_type_c",
]


def x_k_type_a(w: Permutation, k: int, method: int = 1) -> Fraction:
    """Coefficient of w in the type A affine k-shuffle, by one of two routes
    (``method`` 1 or 4; 2 and 3 are aliases of 1)."""
    if not isinstance(w, Permutation):
        raise ValueError(f"x_k_type_a needs a Permutation, got {w!r}")
    if k < 1:
        raise ValueError("k must be positive")
    n = w.n
    cdes = cyclic_descents(w)
    cd, maj = len(cdes), sum(cdes) % n  # every route reads maj only mod n
    denom = k ** (n - 1)
    if method in (1, 2, 3):
        return Fraction(bounded_partition_count(n - 1, k - cd, n, -maj), denom)
    if method == 4:
        if k - cd > 0:
            return Fraction(von_sterneck(n, k - cd, -maj), denom)
        if k - cd == 0 and maj == 0:
            return Fraction(1, denom)
        return Fraction(0)
    raise ValueError(f"method must be 1, 2, 3 or 4, got {method!r}")


def x_k_type_c(w: SignedPermutation, k: int) -> Fraction:
    """Coefficient of w in the type C affine k-shuffle.

    (1/k^n) * binom((k-1)/2 + n - d(w), n) for odd k,
    (1/k^n) * binom(k/2 + n - cd(w), n) for even k,
    with the binomial vanishing when its upper index drops below n.
    """
    if not isinstance(w, SignedPermutation):
        raise ValueError(f"x_k_type_c needs a SignedPermutation, got {w!r}")
    if k < 1:
        raise ValueError("k must be positive")
    n = w.n
    cdes = cyclic_descents(w)
    # d(w) for odd k, cd(w) for even k; k // 2 is (k-1)/2 for odd k
    descents = len(cdes) - (0 in cdes) if k % 2 else len(cdes)
    return Fraction(binomial(k // 2 + n - descents, n), k**n)


def x_k_measure_type_a(n: int, k: int, method: int = 1) -> GroupAlgebraElement:
    """The whole type A element, from the chosen closed form."""
    return GroupAlgebraElement.probability_per_class(
        GroupKind("A", n), lambda cls: x_k_type_a(cls.first, k, method)
    )


def x_k_measure_type_c(n: int, k: int) -> GroupAlgebraElement:
    """The whole type C element, from the binomial closed form."""
    return GroupAlgebraElement.probability_per_class(
        GroupKind("C", n), lambda cls: x_k_type_c(cls.first, k)
    )
