"""Finite fields F_{p^e}, polynomial factorization, and the class measures.

Field elements are encoded as integers 0..q-1 whose base-p digits (low digit
first) are the coordinates in the power basis of the modulus.  Polynomials are
coefficient tuples of such codes, low degree first, with trailing zeros
stripped.  Everything is deterministic: the modulus of F_{p^e} is the
lexicographically smallest monic irreducible of degree e (coefficients
compared low-degree first as integers), factorization is by sieve and trial
division, and all arithmetic is exact.

Two enumerations push polynomial factorizations to conjugacy-class data:

* ``sl_class_measure``: monic degree-n polynomials with constant term 1,
  mapped to the partition of irreducible-factor degrees;
* ``sp_class_measure``: monic degree-2n palindromic polynomials, mapped to a
  pair of partitions via the root-inversion involution (conjugate pairs feed
  the positive cycles, self-conjugate factors of even degree the negative
  ones).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .numth import divisors, mobius, power
from .perm import ClassMeasure, CycleType, SignedCycleType

__all__ = [
    "FieldContext",
    "FqPoly",
    "Factorization",
    "PalindromeFoldingError",
    "make_field",
    "prime_power",
    "factor",
    "is_irreducible",
    "count_irreducibles",
    "conjugate_poly",
    "count_self_conjugate_irreducibles",
    "sl_class_measure",
    "sp_class_measure",
    "fold_palindromic_factorization",
]


class PalindromeFoldingError(ValueError):
    """A palindromic factorization violated the expected folding conventions."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FieldContext:
    """Arithmetic context for F_{p^e} with precomputed operation tables."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {e}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = tuple(c % p for c in modulus[:-1]) + (1,)
        self._irreducibles: dict[int, tuple["FqPoly", ...]] = {}
        self._build_tables()
        if e > 1 and not is_irreducible(make_field(p, 1).poly(self.modulus)):
            raise ValueError(f"modulus {self.modulus} is reducible over F_{p}")

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        # z^e = -(m_0 + m_1 z + ... + m_{e-1} z^{e-1}) mod p
        reduction = tuple((-c) % p for c in self.modulus[:e])

        def decode(code: int) -> list[int]:
            digits = []
            for _ in range(e):
                code, r = divmod(code, p)
                digits.append(r)
            return digits

        def encode(digits: list[int]) -> int:
            code = 0
            for d in reversed(digits):
                code = code * p + d
            return code

        self._add = [[0] * q for _ in range(q)]
        self._mul = [[0] * q for _ in range(q)]
        elems = [decode(c) for c in range(q)]
        for a in range(q):
            for b in range(q):
                self._add[a][b] = encode([(x + y) % p for x, y in zip(elems[a], elems[b])])
                conv = [0] * (2 * e - 1)
                for i, x in enumerate(elems[a]):
                    if x:
                        for j, y in enumerate(elems[b]):
                            conv[i + j] = (conv[i + j] + x * y) % p
                for idx in range(2 * e - 2, e - 1, -1):
                    c = conv[idx]
                    if c:
                        conv[idx] = 0
                        for j in range(e):
                            conv[idx - e + j] = (conv[idx - e + j] + c * reduction[j]) % p
                self._mul[a][b] = encode(conv[:e])
        self._neg = [self._scan_neg(a) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            row = self._mul[a]
            self._inv[a] = row.index(1)

    def _scan_neg(self, a: int) -> int:
        row = self._add[a]
        return row.index(0)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._inv[a]

    @property
    def one(self) -> int:
        return 1

    @property
    def minus_one(self) -> int:
        return self._neg[1]

    def poly(self, coeffs: Iterator[int] | tuple[int, ...] | list[int]) -> "FqPoly":
        return FqPoly(self, tuple(coeffs))

    def all_monic(self, degree: int) -> Iterator["FqPoly"]:
        """Monic polynomials of the given degree, lexicographic low-degree-first."""
        if degree == 0:
            yield self.poly((1,))
            return
        for lower in itertools.product(range(self.q), repeat=degree):
            yield self.poly(lower + (1,))

    def irreducibles(self, degree: int) -> tuple["FqPoly", ...]:
        """All monic irreducibles of the given degree, sieved and cached."""
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if degree not in self._irreducibles:
            self._irreducibles[degree] = tuple(filter(is_irreducible, self.all_monic(degree)))
        return self._irreducibles[degree]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldContext):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, e={self.e}, modulus={self.modulus})"


_FIELD_CACHE: dict[tuple[int, int, tuple[int, ...] | None], FieldContext] = {}


def make_field(p: int, e: int, modulus: tuple[int, ...] | None = None) -> FieldContext:
    """Field context for F_{p^e}.

    Without an explicit modulus the lexicographically smallest monic
    irreducible of degree e is chosen (for e = 1 this is the polynomial z),
    so repeated calls are deterministic.
    """
    key = (p, e, tuple(modulus) if modulus is not None else None)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    if modulus is None:
        if e == 1:
            modulus = (0, 1)
        else:
            prime_field = make_field(p, 1)
            modulus = next(
                f.coeffs for f in prime_field.all_monic(e) if is_irreducible(f)
            )
    field = FieldContext(p, e, tuple(modulus))
    _FIELD_CACHE[key] = field
    return field


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^e with p prime, or raise."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


@dataclass(frozen=True)
class FqPoly:
    """Polynomial over a finite field: element codes, low degree first."""

    field: FieldContext
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        trimmed = list(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        if any(not 0 <= c < self.field.q for c in trimmed):
            raise ValueError(f"coefficient codes out of range: {self.coeffs!r}")
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __add__(self, other: "FqPoly") -> "FqPoly":
        F = self._common_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return FqPoly(F, tuple(out))

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        F = self._common_field(other)
        length = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(length):
            x = self.coeffs[i] if i < len(self.coeffs) else 0
            y = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(F.sub(x, y))
        return FqPoly(F, tuple(out))

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        F = self._common_field(other)
        if self.is_zero or other.is_zero:
            return FqPoly(F, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
        return FqPoly(F, tuple(out))

    def __divmod__(self, other: "FqPoly") -> tuple["FqPoly", "FqPoly"]:
        F = self._common_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = other.degree
        lead_inv = F.inv(dv[-1])
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            c = F.mul(rem[i + dd], lead_inv)
            if c:
                quot[i] = c
                for j, y in enumerate(dv):
                    rem[i + j] = F.sub(rem[i + j], F.mul(c, y))
        return FqPoly(F, tuple(quot)), FqPoly(F, tuple(rem[:dd]))

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[1]

    def divisible_by(self, other: "FqPoly") -> bool:
        return (self % other).is_zero

    def __pow__(self, exponent: int) -> "FqPoly":
        return power(self, exponent, FqPoly(self.field, (1,)))

    def __call__(self, x: int) -> int:
        F = self.field
        value = 0
        for c in reversed(self.coeffs):
            value = F.add(F.mul(value, x), c)
        return value

    def monic(self) -> "FqPoly":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic normalization")
        if self.is_monic:
            return self
        F = self.field
        scale = F.inv(self.coeffs[-1])
        return FqPoly(F, tuple(F.mul(c, scale) for c in self.coeffs))

    def _common_field(self, other: "FqPoly") -> FieldContext:
        if self.field != other.field:
            raise ValueError("polynomials over different fields")
        return self.field

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.degree, self.coeffs)

    @classmethod
    def from_text(cls, field: FieldContext, text: str) -> "FqPoly":
        return cls(field, tuple(int(part) for part in text.split(",")))

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"FqPoly(q={self.field.q}, [{self.to_text()}])"


def is_irreducible(f: FqPoly) -> bool:
    """Trial-division irreducibility test against the sieved cache."""
    if f.degree < 1:
        return False
    return all(
        not f.divisible_by(g)
        for d in range(1, f.degree // 2 + 1)
        for g in f.field.irreducibles(d)
    )


@dataclass(frozen=True)
class Factorization:
    """Complete factorization of a monic polynomial into monic irreducibles."""

    field: FieldContext
    factors: tuple[tuple[FqPoly, int], ...]

    def product(self) -> FqPoly:
        result = self.field.poly((1,))
        for poly, mult in self.factors:
            result = result * poly**mult
        return result

    def multiplicity(self, poly: FqPoly) -> int:
        for candidate, mult in self.factors:
            if candidate == poly:
                return mult
        return 0


def factor(f: FqPoly) -> Factorization:
    """Factor a monic polynomial by trial division with sieved irreducibles."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if not f.is_monic:
        raise ValueError("factor expects a monic polynomial")
    field = f.field
    remaining = f
    found: list[tuple[FqPoly, int]] = []
    d = 1
    while 2 * d <= remaining.degree:
        for g in field.irreducibles(d):
            if g.degree > remaining.degree:
                break
            mult = 0
            while remaining.divisible_by(g):
                remaining = remaining // g
                mult += 1
            if mult:
                found.append((g, mult))
        d += 1
    if remaining.degree >= 1:
        found.append((remaining, 1))
    found.sort(key=lambda pair: pair[0].sort_key())
    return Factorization(field, tuple(found))


def count_irreducibles(n: int, q: int) -> int:
    """Number of monic degree-n irreducibles over F_q: (1/n) sum mu(d) q^{n/d}."""
    if n < 1:
        raise ValueError("n must be positive")
    total = sum(mobius(d) * q ** (n // d) for d in divisors(n))
    count, rem = divmod(total, n)
    if rem:
        raise ArithmeticError(f"irreducible count not integral: n={n} q={q}")
    return count


def conjugate_poly(f: FqPoly) -> FqPoly:
    """Root-inversion involution: the monic polynomial with reciprocal roots.

    For monic f of degree d with f(0) != 0 this is z^d f(1/z) / f(0), i.e. the
    reversed coefficient list rescaled to be monic.
    """
    if f.constant_term() == 0:
        raise ValueError("conjugate requires a nonzero constant term")
    F = f.field
    scale = F.inv(f.coeffs[0])
    return FqPoly(F, tuple(F.mul(c, scale) for c in reversed(f.coeffs)))


def count_self_conjugate_irreducibles(n: int, q: int) -> int:
    """Monic degree-n irreducibles fixed by the root-inversion involution.

    With e = 1 for even q and e = 2 for odd q: e when n = 1; zero for odd
    n > 1; otherwise (1/n) sum over odd d | n of mu(d) (q^{n/2d} + 1 - e).
    """
    if n < 1:
        raise ValueError("n must be positive")
    e = 1 if q % 2 == 0 else 2
    if n == 1:
        return e
    if n % 2:
        return 0
    total = sum(
        mobius(d) * (q ** (n // (2 * d)) + 1 - e) for d in divisors(n) if d % 2
    )
    count, rem = divmod(total, n)
    if rem:
        raise ArithmeticError(f"self-conjugate count not integral: n={n} q={q}")
    return count


def _resolve_field(q: int, field: FieldContext | None) -> FieldContext:
    if field is not None:
        if field.q != q:
            raise ValueError(f"field has order {field.q}, expected {q}")
        return field
    p, e = prime_power(q)
    return make_field(p, e)


def monic_constant_one(field: FieldContext, n: int) -> Iterator[FqPoly]:
    """All q^{n-1} monic degree-n polynomials with constant term 1."""
    if n < 1:
        raise ValueError("n must be positive")
    for middle in itertools.product(range(field.q), repeat=n - 1):
        yield field.poly((1,) + middle + (1,))


def palindromic_polys(field: FieldContext, n: int) -> Iterator[FqPoly]:
    """All q^n monic degree-2n palindromic polynomials."""
    if n < 1:
        raise ValueError("n must be positive")
    for half in itertools.product(range(field.q), repeat=n):
        yield field.poly((1,) + half[: n - 1] + (half[n - 1],) + tuple(reversed(half[: n - 1])) + (1,))


def sl_class_measure(n: int, q: int, field: FieldContext | None = None) -> ClassMeasure:
    """Factor-degree partition distribution of a uniform monic degree-n
    polynomial with constant term 1 over F_q."""
    field = _resolve_field(q, field)
    counts: dict[CycleType, int] = {}
    total = 0
    for f in monic_constant_one(field, n):
        parts: list[int] = []
        for g, mult in factor(f).factors:
            parts.extend([g.degree] * mult)
        t = CycleType(tuple(sorted(parts, reverse=True)))
        counts[t] = counts.get(t, 0) + 1
        total += 1
    if total != q ** (n - 1):
        raise AssertionError(f"expected {q**(n-1)} polynomials, enumerated {total}")
    return ClassMeasure.from_counts(counts, total)


def fold_palindromic_factorization(fact: Factorization) -> SignedCycleType:
    """Fold the factorization of a palindromic polynomial into (lam, mu).

    A conjugate pair {phi, conj(phi)} of degree-i irreducibles with common
    multiplicity m contributes m parts i to lam.  A self-conjugate irreducible
    of even degree 2j with multiplicity m contributes m mod 2 parts j to mu
    and floor(m/2) parts 2j to lam.  The self-conjugate linears z -/+ 1 must
    occur with even multiplicity m and contribute m/2 parts 1 to lam.
    """
    lam: list[int] = []
    mu: list[int] = []
    mults = {poly: mult for poly, mult in fact.factors}
    seen: set[FqPoly] = set()
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
                raise PalindromeFoldingError(
                    f"conjugate multiplicities differ for {poly!r}"
                )
            lam.extend([poly.degree] * mult)
            seen.add(poly)
            seen.add(conj)
    return SignedCycleType(tuple(sorted(lam, reverse=True)), tuple(sorted(mu, reverse=True)))


def sp_class_measure(n: int, q: int, field: FieldContext | None = None) -> ClassMeasure:
    """Signed-cycle-type distribution of a uniform monic degree-2n palindromic
    polynomial over F_q."""
    field = _resolve_field(q, field)
    counts: dict[SignedCycleType, int] = {}
    total = 0
    for f in palindromic_polys(field, n):
        t = fold_palindromic_factorization(factor(f))
        if t.size != n:
            raise AssertionError(f"folded type has size {t.size}, expected {n}")
        counts[t] = counts.get(t, 0) + 1
        total += 1
    if total != q**n:
        raise AssertionError(f"expected {q**n} palindromic polynomials, enumerated {total}")
    return ClassMeasure.from_counts(counts, total)
