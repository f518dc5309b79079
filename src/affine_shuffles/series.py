"""Sparse multivariate formal power series over exact rationals.

Series are truncated on the total degree in the distinguished variable ``u``;
other variables (t, q, x1, x2, ..., y1, y2, ..., shape variables) ride along
unbounded, which is safe because every product built here attaches them to
positive powers of u.

The module also builds the right-hand-side products of the class-measure
generating function in type C, the unimodal cycle index (in both the
per-length and per-shape forms), and the descent/cycle-type identity on the
hyperoctahedral group, for coefficientwise comparison with exhaustive
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .fq import count_self_conjugate_irreducibles
from .numth import binomial, power
from .perm import all_signed_permutations, cycle_type, type_c_stats
from .report import CheckTimer, VerificationReport, first_difference
from .unimodal import transitive_unimodal_count

__all__ = [
    "TruncatedSeries",
    "make_monomial",
    "geometric_inverse",
    "geometric_power",
    "rhs_type_c_product",
    "rhs_unimodal_product",
    "shape_cycle_index_product",
    "signed_type_monomial",
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
    def zero(cls, truncation: int) -> "TruncatedSeries":
        return cls(truncation, {})

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

    def scale(self, value) -> "TruncatedSeries":
        value = Fraction(value)
        return TruncatedSeries(self.truncation, {m: c * value for m, c in self.terms.items()})

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

    def substitute_ones(self, names: Iterable[str] | None = None) -> "TruncatedSeries":
        """Set the listed variables (default: everything except u) to 1."""
        kill = set(names) if names is not None else None
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            if kill is None:
                kept = tuple((v, e) for v, e in mono if v == "u")
            else:
                kept = tuple((v, e) for v, e in mono if v not in kill)
            out[kept] = out.get(kept, Fraction(0)) + coeff
        return TruncatedSeries(self.truncation, out)

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
    """
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


def rhs_unimodal_product(truncation: int) -> TruncatedSeries:
    """Cycle index product for unimodal permutations, by cycle length.

    prod_i ((2^i + x_i u^i)/(2^i - x_i u^i))^{T_i} where T_i is the number of
    transitive unimodal permutations on i symbols.  The u^n coefficient of a
    cycle-type monomial is (number of unimodal permutations of that type)
    divided by 2^{n-1}.
    """
    N = truncation
    result = TruncatedSeries.one(N)
    for i in range(1, N + 1):
        t_i = transitive_unimodal_count(i)
        if t_i == 0:
            continue
        g = TruncatedSeries.term(Fraction(1, 2**i), {f"x{i}": 1, "u": i}, N)
        factor = (TruncatedSeries.one(N) + g) * geometric_inverse(g)
        result = result * factor**t_i
    return result


def shape_cycle_index_product(
    shape_names_by_size: Mapping[int, Sequence[str]], truncation: int
) -> TruncatedSeries:
    """Shape-resolved unimodal cycle index.

    One factor (2^i + s u^i)/(2^i - s u^i) per shape variable s of size i; the
    caller supplies the variable names per size (one per transitive unimodal
    shape).
    """
    N = truncation
    result = TruncatedSeries.one(N)
    for size, names in sorted(shape_names_by_size.items()):
        if size > N:
            continue
        for name in names:
            g = TruncatedSeries.term(Fraction(1, 2**size), {name: 1, "u": size}, N)
            result = result * (TruncatedSeries.one(N) + g) * geometric_inverse(g)
    return result


def signed_type_monomial(t) -> dict[str, int]:
    """Variable exponents x_i^{lam multiplicities} y_j^{mu multiplicities}."""
    exps: dict[str, int] = {}
    for part in t.lam:
        exps[f"x{part}"] = exps.get(f"x{part}", 0) + 1
    for part in t.mu:
        exps[f"y{part}"] = exps.get(f"y{part}", 0) + 1
    return exps


def reiner_identity_check(n_max: int, k_max: int) -> VerificationReport:
    """Descent/cycle-type identity on C_n against the type C product.

    For each k, the coefficient of t^k of the left side is built exhaustively:
    summing binom(n + k - d(w) - 1, n) over w in C_n attached to the monomial
    u^n x^{lam(w)} y^{mu(w)} (the binomial weights come from expanding
    1/(1-t)^{n+1} against t^{d(w)+1}).  The right side is the type C product
    at q = 2k - 1, whose odd-q prefactor is exactly the extra 1/(1 - x_1 u)
    factor the identity carries.
    """
    timer = CheckTimer()
    params = {"n_max": n_max, "k_max": k_max}
    for k in range(1, k_max + 1):
        q = 2 * k - 1
        lhs = TruncatedSeries.one(n_max)  # u^0 term: binom(k-1, 0) = 1
        for n in range(1, n_max + 1):
            for w in all_signed_permutations(n):
                weight = binomial(n + k - type_c_stats(w).d - 1, n)
                if weight == 0:
                    continue
                exps = signed_type_monomial(cycle_type(w))
                exps["u"] = n
                lhs = lhs + TruncatedSeries.term(weight, exps, n_max)
        rhs = rhs_type_c_product(q, n_max)
        bad = first_difference(lhs.terms, rhs.terms)
        if bad is not None:
            return timer.report(
                "reiner_identity", params,
                {
                    "k": k,
                    "monomial": dict(bad),
                    "left": lhs.terms.get(bad, Fraction(0)),
                    "right": rhs.terms.get(bad, Fraction(0)),
                },
            )
    return timer.report("reiner_identity", params, None)
