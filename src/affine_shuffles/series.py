"""The type C class-measure generating function, one u^n slice at a time.

The paper's type C analysis rests on one Euler product,

    (1/(1 - x_1 u))^{e-1} * prod_m ((1 + y_m u^m)/(1 - x_m u^m))^{b_m},

with e = 1 for even q, e = 2 for odd q, and b_m the number of
self-conjugate monic irreducibles of degree 2m over F_q.  Its u^n
coefficient on x^lam y^mu, for a signed cycle type (lam, mu) of size n, is
a product of binomials over the part lengths m,

    prod_m C(b'_m + a_m - 1, a_m) * C(b_m, c_m),

where a_m and c_m count the parts equal to m in lam and in mu, and
b'_1 = b_1 + e - 1, b'_m = b_m for m > 1: a multiset of a_m factors from
the geometric side and a set of c_m from the numerator.
``type_c_product_slice`` returns these coefficients by signed cycle type,
and every generating-function check compares them with another route
(``slice_witness``):

* against the palindromic polynomials of degree 2n over F_q, by type;
* at q = 2 with each signed type folded into the cycle type of lam + mu,
  which forgets the signs: the slice then counts 2^n signed permutations
  and halving it gives the 2^(n-1) unimodal permutations of S_n by cycle
  type, since 2^(n-1)/2^n = 1/2.  This is the paper's route to Rogers'
  problem;
* at odd q = 2k - 1 against the type C closed form of the affine
  q-shuffle, which is Reiner's descent/cycle-type identity on C_n.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Mapping

from .closed_forms import x_k_measure_type_c
from .fq import count_self_conjugate_irreducibles
from .perm import SignedCycleType
from .report import check, first_difference

__all__ = [
    "type_c_product_slice",
    "slice_witness",
    "reiner_identity_check",
]


def type_c_product_slice(q: int, n: int) -> dict[SignedCycleType, int]:
    """The u^n coefficients of the type C product by signed cycle type,
    zero coefficients left out.

    For a prime power q, coefficient / q^n is the mass of the type in
    ``sp_class_measure(n, q)``.  At n = 0 the slice is the constant term 1
    on the empty type.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    negative = [0] + [count_self_conjugate_irreducibles(2 * m, q) for m in range(1, n + 1)]
    positive = list(negative)
    if n and q % 2:
        positive[1] += 1
    # Types whose parts are all at least m, built from the largest part down.
    partial = {((), ()): 1}
    for m in range(n, 0, -1):
        grown = {}
        for (lam, mu), coeff in partial.items():
            rest = n - sum(lam) - sum(mu)
            for a in range(rest // m + 1):
                lam_coeff = coeff * (comb(positive[m] + a - 1, a) if a else 1)
                for c in range((rest - m * a) // m + 1):
                    term = lam_coeff * comb(negative[m], c)
                    if term:
                        grown[lam + (m,) * a, mu + (m,) * c] = term
        partial = grown
    return {
        SignedCycleType(lam, mu): coeff
        for (lam, mu), coeff in partial.items() if sum(lam) + sum(mu) == n
    }


def slice_witness(
    n_max: int,
    product: Callable[[int], Mapping],
    other: Callable[[int], Mapping],
    other_name: str,
) -> dict | None:
    """The first u^n slice, n = 1..n_max, where the product's coefficients
    differ from the other side's, as a witness; None when every slice agrees."""
    for n in range(1, n_max + 1):
        got, want = product(n), other(n)
        bad = first_difference(got, want, key=repr)
        if bad is not None:
            return {"n": n, "class": repr(bad),
                    "product": got.get(bad, 0), other_name: want.get(bad, 0)}
    return None


@check("reiner_identity")
def reiner_identity_check(n_max: int, k_max: int):
    """Descent/cycle-type identity on C_n against the type C product.

    For each k, the u^n slice of the left side sums binom(n + k - d(w) - 1, n)
    over w in C_n on the monomial x^{lam(w)} y^{mu(w)}.  That binomial is q^n
    times the type C closed form of the affine q-shuffle at q = 2k - 1, so the
    left side is that element's class measure times q^n.  The right side is
    the type C product at the same q, whose odd-q prefactor is exactly the
    extra 1/(1 - x_1 u) factor the identity carries.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    for k in range(1, k_max + 1):
        q = 2 * k - 1
        witness = slice_witness(
            n_max, lambda n: type_c_product_slice(q, n),
            lambda n: {t: mass * q**n for t, mass in
                       x_k_measure_type_c(n, q).class_measure().masses.items()},
            "closed_form",
        )
        if witness is not None:
            return {"k": k, **witness}
    return None
