"""Finite fields F_{p^e}, polynomial factorization, and the class measures.

Field elements are encoded as integers 0..q-1 whose base-p digits (low digit
first) are the coordinates in the power basis of the modulus.  Polynomials are
coefficient tuples of such codes, low degree first, with trailing zeros
stripped.  Everything is deterministic: the modulus of F_{p^e} is the
lexicographically smallest monic irreducible of degree e (coefficients
compared low-degree first as integers), the irreducibles of each degree are
sieved by marking every product of irreducibles of lower degree with the
walk below, and all arithmetic is exact.  A modulus passed to
``FieldContext`` is checked by membership in the prime field's sieve.
Polynomial arithmetic, ``factor`` and the walks share two kernels on codes,
``_times`` and ``_long_division``; over F_p they also build the tables of
F_{p^e}, multiplying digit vectors and reducing by the modulus.

The class measures factor nothing.  By unique factorization each reducible
polynomial is a product of irreducibles of lower degree in exactly one way,
so one walk (``_block_walk``) builds every product of "blocks" of a given
total degree once, multiplying codes one block at a time, and reads the
factorization type off the blocks it used; the irreducibles of full degree
are the polynomials it never reaches:

* ``sl_class_measure``: monic degree-n polynomials with constant term 1,
  mapped to the partition of irreducible-factor degrees;
* ``sp_class_measure``: monic degree-2n palindromic polynomials, mapped to a
  pair of partitions via the root-inversion involution.  The blocks are the
  factors of the type C product: each repeatable one of degree 2m (a
  conjugate pair's product, (z -/+ 1)^2 or the square of a self-conjugate
  irreducible) gives a part m to the positive cycles, each self-conjugate
  irreducible of degree 2m, used at most once, a part m to the negative
  ones.  The self-conjugate irreducibles of degree 2j are the palindromes
  of degree 2j that the walk does not reach, so they are found without
  sieving degree 2j.

Each walk checks that its products are distinct and of the right shape, and
that what it leaves over matches the closed-form irreducible counts.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator

from .numth import divisors, mobius
from .perm import ClassMeasure, CycleType, SignedCycleType

__all__ = [
    "FieldContext",
    "FqPoly",
    "Factorization",
    "make_field",
    "prime_power",
    "factor",
    "count_irreducibles",
    "conjugate_poly",
    "count_self_conjugate_irreducibles",
    "sl_class_measure",
    "sp_class_measure",
]


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
        self._self_conjugates: dict[int, tuple["FqPoly", ...]] = {}
        if e > 1:
            # before the tables: a reducible modulus has no inverse table
            prime = make_field(p, 1)
            if prime.poly(self.modulus) not in prime.irreducibles(e):
                raise ValueError(f"modulus {self.modulus} is reducible over F_{p}")
        self._build_tables()

    def _build_tables(self) -> None:
        p, e = self.p, self.e
        if e == 1:
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._mul = [[a * b % p for b in range(p)] for a in range(p)]
        else:
            # A code's base-p digits are a polynomial over F_p of degree < e:
            # a product goes through the prime field's kernels, then the modulus.
            prime = make_field(p, 1)
            weights = [p**i for i in range(e)]
            elems = [[c // w % p for w in weights] for c in range(self.q)]

            def encode(digits) -> int:
                return sum(map(operator.mul, weights, digits))

            self._add = [[encode([(x + y) % p for x, y in zip(a, b)]) for b in elems]
                         for a in elems]
            self._mul = [[encode(_long_division(prime, _times(prime, a, b), self.modulus)[1])
                          for b in elems] for a in elems]
        self._neg = [row.index(0) for row in self._add]
        self._sub = [[row[n] for n in self._neg] for row in self._add]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._inv[a]

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
        """All monic irreducibles of the given degree, in ``all_monic`` order,
        cached.  They are sieved the way Eratosthenes sieves primes: every
        product of irreducibles of lower degree is marked once, and the
        polynomials left unmarked are the irreducibles."""
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if degree not in self._irreducibles:
            blocks = [g.coeffs for d in range(1, degree) for g in self.irreducibles(d)]
            products = _Products(self, degree, degree, first=0)
            for product, _, lo, hi in _block_walk(self, blocks, degree):
                for i in range(lo, hi):
                    products.mark(_times(self, product, blocks[i]))
            found = [self.poly(d + (1,)) for d in products.unmarked()]
            expected = count_irreducibles(degree, self.q)
            if len(found) != expected:
                raise ArithmeticError(f"degree {degree} over F_{self.q}: sieve found "
                                      f"{len(found)} irreducibles, Gauss's count is {expected}")
            self._irreducibles[degree] = tuple(found)
        return self._irreducibles[degree]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldContext):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, e={self.e}, modulus={self.modulus})"


_FIELD_CACHE: dict[tuple[int, int], FieldContext] = {}


def make_field(p: int, e: int) -> FieldContext:
    """Field context for F_{p^e}, cached.

    The modulus is the lexicographically smallest monic irreducible of
    degree e (for e = 1 the polynomial z), so repeated calls are
    deterministic.
    """
    key = (p, e)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    modulus = (0, 1) if e == 1 else make_field(p, 1).irreducibles(e)[0].coeffs
    field = FieldContext(p, e, modulus)
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

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        F = self._common_field(other)
        if self.is_zero or other.is_zero:
            return FqPoly(F, ())
        return FqPoly(F, tuple(_times(F, self.coeffs, other.coeffs)))

    def __divmod__(self, other: "FqPoly") -> tuple["FqPoly", "FqPoly"]:
        F = self._common_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _long_division(F, self.coeffs, other.coeffs)
        return FqPoly(F, tuple(quot)), FqPoly(F, tuple(rem))

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
        """Coefficient codes, low degree first; "0" for the zero polynomial,
        whose coefficient list is empty, so that ``from_text`` reads it back."""
        return ",".join(str(c) for c in self.coeffs) or "0"

    def __repr__(self) -> str:
        return f"FqPoly(q={self.field.q}, [{self.to_text()}])"


def _long_division(field: FieldContext, a: tuple, dv: tuple) -> tuple[list[int], list[int]]:
    """Quotient and remainder codes of a by the nonzero dv, low degree first.

    The remainder has deg(dv) entries at most and may end in zeros.  The
    divisor's top term only cancels a code never read again, so it is skipped.
    """
    mul, sub = field._mul, field._sub
    dd = len(dv) - 1
    scale = mul[field._inv[dv[-1]]]
    terms = [(j, y) for j, y in enumerate(dv[:dd]) if y]
    rem = list(a)
    quot = [0] * (len(rem) - dd)  # empty when deg a < deg dv
    for i in range(len(rem) - dd - 1, -1, -1):
        c = scale[rem[i + dd]]
        if c:
            quot[i] = c
            row = mul[c]
            for j, y in terms:
                rem[i + j] = sub[rem[i + j]][row[y]]
    return quot, rem[:dd]


@dataclass(frozen=True)
class Factorization:
    """Complete factorization of a monic polynomial into monic irreducibles."""

    field: FieldContext
    factors: tuple[tuple[FqPoly, int], ...]

    def product(self) -> FqPoly:
        result = self.field.poly((1,))
        for poly, mult in self.factors:
            for _ in range(mult):
                result = result * poly
        return result


def factor(f: FqPoly) -> Factorization:
    """Factor a monic polynomial by trial division with sieved irreducibles."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if not f.is_monic:
        raise ValueError("factor expects a monic polynomial")
    field = f.field
    remaining = f.coeffs
    found: list[tuple[FqPoly, int]] = []
    d = 1
    while 2 * d < len(remaining):
        for g in field.irreducibles(d):
            # no factor of degree < d is left, so below degree 2d it is irreducible
            if 2 * d >= len(remaining):
                break
            mult = 0
            while True:
                quot, rem = _long_division(field, remaining, g.coeffs)
                if any(rem):
                    break
                remaining = tuple(quot)
                mult += 1
            if mult:
                found.append((g, mult))
        d += 1
    if len(remaining) > 1:
        found.append((field.poly(remaining), 1))
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


def _times(field: FieldContext, a, b) -> list[int]:
    """Codes of the product of two nonzero polynomials given by their codes."""
    mul, add = field._mul, field._add
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for k, y in enumerate(b, i):
                out[k] = add[out[k]][row[y]]
    return out


def _block_walk(field: FieldContext, blocks: list, target: int, single=frozenset()):
    """Every multiset of blocks whose degrees sum to ``target``, once each,
    in which the blocks whose indices are in ``single`` occur at most once.

    ``blocks`` are coefficient codes of monic polynomials, sorted by degree.
    A multiset is a nondecreasing sequence of block indices, increasing after
    each index in ``single``.  The walk yields each of its proper prefixes
    once, as ``(product, chosen, lo, hi)``: the product's codes, the prefix's
    indices (a list the walk goes on to mutate) and the range of the blocks
    that can end it, those that may follow ``chosen[-1]`` and whose degree is
    ``target - deg(product)``.  The product grows one block at a time, so a
    prefix shared by many multisets is multiplied once.
    """
    degree = [len(b) - 1 for b in blocks]
    chosen: list[int] = []

    def walk(product, start, left):
        lo = max(start, bisect.bisect_left(degree, left))
        hi = bisect.bisect_right(degree, left, lo)
        if lo < hi:
            yield product, chosen, lo, hi
        for i in range(start, len(blocks)):
            if 2 * degree[i] > left:
                break
            chosen.append(i)
            yield from walk(_times(field, product, blocks[i]), i + (i in single),
                            left - degree[i])
            chosen.pop()

    return walk((1,), 0, target)


class _Products:
    """Marks each product of a walk in a table of all candidates, so that a
    repeat is caught without keeping the products.  The table index reads
    the ``digits`` coefficients from ``first`` on as base-q digits,
    coefficient ``first`` the most significant, so index order is the order
    of ``all_monic`` (from 0), and of the palindromes by their coefficients
    1..n (from 1)."""

    def __init__(self, field: FieldContext, degree: int, digits: int, first: int = 1):
        self.where = f"degree {degree} over F_{field.q}"
        self.q = field.q
        self.weights = [0] * first + [field.q ** (digits - 1 - i) for i in range(digits)]
        self.seen = bytearray(field.q**digits)

    def mark(self, f: list[int]) -> None:
        k = sum(map(operator.mul, self.weights, f))
        if self.seen[k]:
            raise ArithmeticError(f"{self.where}: product {f} repeats")
        self.seen[k] = 1

    def unmarked(self) -> Iterator[tuple[int, ...]]:
        """The digits of each index left unmarked, most significant first."""
        k = self.seen.find(0)
        while k >= 0:
            yield tuple(k // w % self.q for w in self.weights if w)
            k = self.seen.find(0, k + 1)

    def fail(self, message: str) -> None:
        raise ArithmeticError(f"{self.where}: {message}")


def sl_class_measure(n: int, q: int, field: FieldContext | None = None) -> ClassMeasure:
    """Factor-degree partition distribution of a uniform monic degree-n
    polynomial with constant term 1 over F_q.

    Each reducible such polynomial is a product of irreducibles of degree
    below n, none of them z, and is built once by ``_block_walk``; the
    irreducibles of degree n take the rest.  Every product on another nonzero
    constant term is counted without being built, and the irreducibles left
    over all nonzero constant terms must be Gauss's count.
    """
    if n < 1:
        raise ValueError("n must be positive")
    field = _resolve_field(q, field)
    blocks = [g.coeffs for d in range(1, n) for g in field.irreducibles(d) if g.coeffs[0]]
    products = _Products(field, n, n - 1)
    counts: dict[CycleType, int] = {}
    leaves = 0
    for product, chosen, lo, hi in _block_walk(field, blocks, n):
        leaves += hi - lo
        last = field._inv[product[0]]
        taken = 0
        for i in range(lo, hi):
            if blocks[i][0] == last:
                f = _times(field, product, blocks[i])
                if f[0] != 1:
                    products.fail(f"product {f} has constant term {f[0]}, not 1")
                products.mark(f)
                taken += 1
        if taken:
            # the last block has the largest degree: the one left to fill
            last_degree = n - len(product) + 1
            t = CycleType((last_degree,) + tuple(len(blocks[i]) - 1 for i in reversed(chosen)))
            counts[t] = counts.get(t, 0) + taken
    left, expected = (q - 1) * q ** (n - 1) - leaves, count_irreducibles(n, q) - (n == 1)
    if left != expected:
        products.fail(f"{left} polynomials with nonzero constant term are not products, "
                      f"Gauss's count without z is {expected}")
    counts[CycleType((n,))] = q ** (n - 1) - sum(counts.values())
    return ClassMeasure.from_counts(counts, q ** (n - 1))


def _palindromic_types(field: FieldContext, n: int) -> dict[SignedCycleType, int]:
    """Counts of the monic degree-2n palindromic polynomials by signed type.

    The blocks are the factors of the type C product, sorted by degree.  A
    repeatable block of degree 2m gives a part m to lam: (z -/+ 1)^2,
    phi * conj(phi) for each conjugate pair of irreducibles of degree m <= n,
    and g^2 for each self-conjugate irreducible g of degree m <= n.  A block
    used at most once gives m to mu: the self-conjugate irreducibles of
    degree 2m < 2n.  As g^k = g^(k mod 2) (g^2)^(k // 2), each palindrome is
    one product of blocks.  The palindromes that are no product of blocks are
    the self-conjugate irreducibles of degree 2n; they are cached on the
    field for the walks above this one.
    """
    blocks = [_times(field, (c, 1), (c, 1)) for c in sorted({1, field._neg[1]})]
    single: set[int] = set()
    for m in range(1, n + 1):
        for g in field.irreducibles(m):
            h = conjugate_poly(g).coeffs if g.coeffs[0] else ()
            if h > g.coeffs:
                blocks.append(_times(field, g.coeffs, h))
        if m % 2 == 0:
            blocks.extend(_times(field, g.coeffs, g.coeffs) for g in _self_conjugates(field, m))
        if m < n:
            for g in _self_conjugates(field, 2 * m):
                single.add(len(blocks))
                blocks.append(g.coeffs)
    products = _Products(field, 2 * n, n)
    counts: dict[tuple, int] = {}  # (lam, mu) -> palindromes
    for product, chosen, lo, hi in _block_walk(field, blocks, 2 * n, single):
        ends_in_mu = 0
        for i in range(lo, hi):
            f = _times(field, product, blocks[i])
            if f != f[::-1]:
                products.fail(f"product {f} is not palindromic")
            products.mark(f)
            ends_in_mu += i in single
        # the last block has the largest degree: the one left to fill
        part = (2 * n + 1 - len(product)) // 2
        lam = tuple(len(blocks[i]) // 2 for i in reversed(chosen) if i not in single)
        mu = tuple(len(blocks[i]) // 2 for i in reversed(chosen) if i in single)
        for key, taken in ((((part,) + lam, mu), hi - lo - ends_in_mu),
                           ((lam, (part,) + mu), ends_in_mu)):
            if taken:
                counts[key] = counts.get(key, 0) + taken
    left = tuple(field.poly((1,) + d + d[-2::-1] + (1,)) for d in products.unmarked())
    expected = count_self_conjugate_irreducibles(2 * n, field.q)
    if len(left) != expected:
        products.fail(f"{len(left)} palindromes are not products, "
                      f"the self-conjugate count is {expected}")
    field._self_conjugates[2 * n] = left
    counts[(), (n,)] = len(left)
    return {SignedCycleType(*key): c for key, c in counts.items()}


def _self_conjugates(field: FieldContext, degree: int) -> tuple[FqPoly, ...]:
    """The monic self-conjugate irreducibles of even degree, cached on the field."""
    if degree not in field._self_conjugates:
        _palindromic_types(field, degree // 2)
    return field._self_conjugates[degree]


def sp_class_measure(n: int, q: int, field: FieldContext | None = None) -> ClassMeasure:
    """Signed-cycle-type distribution of a uniform monic degree-2n palindromic
    polynomial over F_q, read off the products of ``_palindromic_types``."""
    if n < 1:
        raise ValueError("n must be positive")
    field = _resolve_field(q, field)
    return ClassMeasure.from_counts(_palindromic_types(field, n), q**n)
