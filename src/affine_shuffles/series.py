"""Sparse multivariate formal power series over exact rationals.

Series are truncated on the total degree in the distinguished variable ``u``;
other variables (x1, x2, ..., y1, y2, ...) ride along unbounded, which is
safe because every product built here attaches them to positive powers of u.

The module builds one product, the right-hand side of the type C
class-measure generating function, and every generating-function check reads
it, one u^n slice at a time (``slice_witness``):

* against the palindromic polynomials of degree 2n over F_q, by type;
* at q = 2 with each y_m set to x_m (``unsigned_slice``), which forgets the
  signs of the cycle type: the slice then counts 2^n signed permutations and
  halving it gives the 2^(n-1) unimodal permutations of S_n by cycle type,
  since 2^(n-1)/2^n = 1/2.  This is the paper's route to Rogers' problem;
* at odd q = 2k - 1 against the type C closed form of the affine
  q-shuffle, which is Reiner's descent/cycle-type identity on C_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .closed_forms import x_k_measure_type_c
from .fq import count_self_conjugate_irreducibles
from .numth import power
from .perm import ClassMeasure
from .report import CheckTimer, VerificationReport, first_difference

__all__ = [
    "TruncatedSeries",
    "make_monomial",
    "geometric_inverse",
    "geometric_power",
    "rhs_type_c_product",
    "signed_type_monomial",
    "measure_slice",
    "unsigned_slice",
    "slice_witness",
    "reiner_identity_check",
]

Monomial = tuple[tuple[str, int], ...]


def make_monomial(exps: Mapping[str, int]) -> Monomial:
    """Canonical sorted-tuple form of a variable-exponent mapping."""
    return tuple(sorted((v, e) for v, e in exps.items() if e != 0))


def _u_degree(mono: Monomial) -> int:
    for var, exp in mono:
        if var == "u":
            return exp
    return 0


def _merge(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[str, int] = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return make_monomial(exps)


@dataclass(frozen=True)
class TruncatedSeries:
    """Formal power series truncated at a fixed total u-degree."""

    truncation: int
    terms: Mapping[Monomial, Fraction]

    def __post_init__(self) -> None:
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        cleaned = {}
        for mono, coeff in self.terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if _u_degree(mono) > self.truncation:
                raise ValueError(f"term {mono} exceeds u-truncation {self.truncation}")
            cleaned[mono] = coeff
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def constant(cls, value, truncation: int) -> "TruncatedSeries":
        return cls(truncation, {(): Fraction(value)})

    @classmethod
    def one(cls, truncation: int) -> "TruncatedSeries":
        return cls.constant(1, truncation)

    @classmethod
    def term(cls, coeff, exps: Mapping[str, int], truncation: int) -> "TruncatedSeries":
        return cls(truncation, {make_monomial(exps): Fraction(coeff)})

    def coefficient(self, exps: Mapping[str, int]) -> Fraction:
        return self.terms.get(make_monomial(exps), Fraction(0))

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return TruncatedSeries(self.truncation, out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.truncation, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out: dict[Monomial, Fraction] = {}
        bound = self.truncation
        for m1, c1 in self.terms.items():
            d1 = _u_degree(m1)
            for m2, c2 in other.terms.items():
                if d1 + _u_degree(m2) > bound:
                    continue
                m = _merge(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return TruncatedSeries(self.truncation, out)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        return power(self, exponent, TruncatedSeries.one(self.truncation))

    def min_u_degree(self) -> int | None:
        if not self.terms:
            return None
        return min(_u_degree(m) for m in self.terms)

    def u_slice(self, degree: int) -> dict[Monomial, Fraction]:
        """All terms of exact u-degree ``degree``, keyed by the residual monomial."""
        out = {}
        for mono, coeff in self.terms.items():
            if _u_degree(mono) == degree:
                residual = tuple((v, e) for v, e in mono if v != "u")
                out[residual] = coeff
        return out


def geometric_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Exact expansion of 1/(1 - s) for s with no u-constant terms."""
    mind = s.min_u_degree()
    if s.terms and (mind is None or mind < 1):
        raise ValueError("geometric expansion needs every term to carry u")
    result = TruncatedSeries.one(s.truncation)
    power = TruncatedSeries.one(s.truncation)
    if not s.terms:
        return result
    steps = s.truncation // mind
    for _ in range(steps):
        power = power * s
        result = result + power
    return result


def geometric_power(base: TruncatedSeries, exponent: int) -> TruncatedSeries:
    """(1/(1 - base))^exponent for integer exponent >= 0."""
    if exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    return geometric_inverse(base) ** exponent


def rhs_type_c_product(q: int, truncation: int) -> TruncatedSeries:
    """Right-hand side of the type C class-measure generating function.

    (1/(1-x_1 u))^{e-1} * prod_m ((1 + y_m u^m)/(1 - x_m u^m))^{b_m}
    with e = 1 for even q, 2 for odd q, and b_m the number of self-conjugate
    monic irreducibles of degree 2m over F_q.
    The coefficient of u^n times the monomial of a signed cycle type counts
    the palindromic degree-2n polynomials with that factorization type.
    Truncated at u^0 the product is the constant 1.
    """
    if truncation < 1:
        return TruncatedSeries.one(truncation)  # refuses a negative truncation
    e = 1 if q % 2 == 0 else 2
    N = truncation
    result = geometric_power(TruncatedSeries.term(1, {"x1": 1, "u": 1}, N), e - 1)
    for m in range(1, N + 1):
        b = count_self_conjugate_irreducibles(2 * m, q)
        if b == 0:
            continue
        numer = (
            TruncatedSeries.one(N)
            + TruncatedSeries.term(1, {f"y{m}": 1, "u": m}, N)
        ) ** b
        denom = geometric_power(TruncatedSeries.term(1, {f"x{m}": 1, "u": m}, N), b)
        result = result * numer * denom
    return result


def signed_type_monomial(t) -> dict[str, int]:
    """Variable exponents x_i^{lam multiplicities} y_j^{mu multiplicities}."""
    exps: dict[str, int] = {}
    for part in t.lam:
        exps[f"x{part}"] = exps.get(f"x{part}", 0) + 1
    for part in t.mu:
        exps[f"y{part}"] = exps.get(f"y{part}", 0) + 1
    return exps


def measure_slice(measure: ClassMeasure, scale: int) -> dict[Monomial, Fraction]:
    """A class measure over signed cycle types as a u-slice: each mass times
    ``scale`` on the monomial of its type."""
    return {
        make_monomial(signed_type_monomial(t)): mass * scale
        for t, mass in measure.masses.items()
    }


def unsigned_slice(product: TruncatedSeries, degree: int) -> dict[Monomial, Fraction]:
    """The u^degree slice of ``product`` with each y_m set to x_m."""
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in product.u_slice(degree).items():
        exps: dict[str, int] = {}
        for var, e in mono:
            x = "x" + var[1:]
            exps[x] = exps.get(x, 0) + e
        key = make_monomial(exps)
        out[key] = out.get(key, Fraction(0)) + coeff
    return out


def slice_witness(
    n_max: int,
    product: Callable[[int], Mapping[Monomial, Fraction]],
    other: Callable[[int], Mapping[Monomial, Fraction]],
    other_name: str,
) -> dict | None:
    """The first u^n slice, n = 1..n_max, where the product's coefficients
    differ from the other side's, as a witness; None when every slice agrees."""
    for n in range(1, n_max + 1):
        got, want = product(n), other(n)
        bad = first_difference(got, want, key=repr)
        if bad is not None:
            return {"n": n, "monomial": dict(bad),
                    "product": got.get(bad, Fraction(0)),
                    other_name: want.get(bad, Fraction(0))}
    return None


def reiner_identity_check(n_max: int, k_max: int) -> VerificationReport:
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
    timer = CheckTimer()
    params = {"n_max": n_max, "k_max": k_max}
    for k in range(1, k_max + 1):
        q = 2 * k - 1
        rhs = rhs_type_c_product(q, n_max)
        witness = slice_witness(
            n_max, rhs.u_slice,
            lambda n: measure_slice(x_k_measure_type_c(n, q).class_measure(), q**n),
            "closed_form",
        )
        if witness is not None:
            return timer.report("reiner_identity", params, {"k": k, **witness})
    return timer.report("reiner_identity", params, None)
