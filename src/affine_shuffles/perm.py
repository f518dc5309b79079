"""Group elements of S_n and the hyperoctahedral group C_n.

Permutations are stored in one-line form: position i holds w(i), with symbols
1..n.  Signed permutations allow negated images, with the action extended to
negative arguments by w(-i) = -w(i).  The composition convention throughout is

    (u * v)(i) = u(v(i)),

and every statement about shuffle models elsewhere in the package is made
against this convention.

The module also houses the descent statistics the measures are built from
(descents, major index, cyclic descents for both types), conjugacy-class data
(cycle types, signed cycle types), descent histograms, and sparse group-algebra
arithmetic over exact rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Union

__all__ = [
    "Permutation",
    "SignedPermutation",
    "CycleType",
    "SignedCycleType",
    "GroupKind",
    "GroupAlgebraElement",
    "ClassMeasure",
    "TypeAStats",
    "TypeCStats",
    "type_a_stats",
    "type_c_stats",
    "cycle_type",
    "descent_histograms",
    "all_permutations",
    "all_signed_permutations",
    "convolve",
    "invert_element",
]


@dataclass(frozen=True)
class Permutation:
    """Element of S_n in one-line form: ``images[i-1] == w(i)``."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images!r}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= abs(i) <= self.n:
            raise ValueError(f"argument {i} outside 1..{self.n}")
        return self.images[i - 1] if i > 0 else -self.images[-i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[v - 1] for v in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest member, ordered by it."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self(j)
            out.append(tuple(cyc))
        return out

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        return cls(tuple(int(part) for part in text.split(",")))

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.to_text()})"


@dataclass(frozen=True)
class SignedPermutation:
    """Element of C_n: images may be negated, absolute values are a bijection.

    The action on negative arguments is forced by w(-i) = -w(i), which makes
    the sign-product rule for cycle types well defined.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)) or 0 in self.images:
            raise ValueError(f"not a signed permutation on 1..{n}: {self.images!r}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= abs(i) <= self.n:
            raise ValueError(f"argument {i} outside +-1..{self.n}")
        return self.images[i - 1] if i > 0 else -self.images[-i - 1]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return SignedPermutation(tuple(self(v) for v in other.images))

    def inverse(self) -> "SignedPermutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            if v > 0:
                inv[v - 1] = i
            else:
                inv[-v - 1] = -i
        return SignedPermutation(tuple(inv))

    def underlying(self) -> Permutation:
        """The unsigned permutation i -> |w(i)|."""
        return Permutation(tuple(abs(v) for v in self.images))

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "SignedPermutation":
        return cls(tuple(int(part) for part in text.split(",")))

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.images)

    def __repr__(self) -> str:
        return f"SignedPermutation({self.to_text()})"


GroupElement = Union[Permutation, SignedPermutation]


class GroupKind(NamedTuple):
    """Which group an algebra element lives on.

    family "A" means S_n on n symbols (Weyl group of type A_{n-1});
    family "C" means the signed permutations C_n.
    """

    family: str
    n: int

    def elements(self) -> Iterator[GroupElement]:
        if self.family == "A":
            return all_permutations(self.n)
        return all_signed_permutations(self.n)

    def order(self) -> int:
        import math

        size = math.factorial(self.n)
        return size if self.family == "A" else size * 2**self.n

    def identity(self) -> GroupElement:
        if self.family == "A":
            return Permutation.identity(self.n)
        return SignedPermutation.identity(self.n)


def _check_family(family: str) -> None:
    if family not in ("A", "C"):
        raise ValueError(f"family must be 'A' or 'C', got {family!r}")


def all_permutations(n: int) -> Iterator[Permutation]:
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def all_signed_permutations(n: int) -> Iterator[SignedPermutation]:
    for images in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(tuple(s * v for s, v in zip(signs, images)))


# ---------------------------------------------------------------------------
# Descent statistics
# ---------------------------------------------------------------------------

class TypeAStats(NamedTuple):
    descents: frozenset[int]
    maj: int
    cyclic_descents: frozenset[int]
    cd: int


class TypeCStats(NamedTuple):
    descents: frozenset[int]
    d: int
    cyclic_descents: frozenset[int]
    cd: int


def type_a_stats(w: Permutation) -> TypeAStats:
    """Descent set, major index, and cyclic descents of w in S_n.

    Descents are positions i < n with w(i) > w(i+1); the major index is their
    sum.  Cyclic descents add the marker 0 (the affine position) exactly when
    w(n) > w(1).  Root indices: i stands for the simple root at position i and
    0 for the affine root.
    """
    images = w.images
    n = w.n
    descents = frozenset(i for i in range(1, n) if images[i - 1] > images[i])
    maj = sum(descents)
    cyclic = set(descents)
    if n >= 2 and images[-1] > images[0]:
        cyclic.add(0)
    cyclic_descents = frozenset(cyclic)
    return TypeAStats(descents, maj, cyclic_descents, len(cyclic_descents))


def _type_c_key(x: int, n: int) -> tuple[bool, int]:
    # Total order 1 < 2 < ... < n < -n < ... < -2 < -1.
    return (x < 0, x)


def type_c_stats(w: SignedPermutation) -> TypeCStats:
    """Descents and cyclic descents of a signed permutation.

    In the order 1 < 2 < ... < n < -n < ... < -2 < -1, w has a descent at
    position i < n when w(i) > w(i+1), a descent at position n when w(n) < 0,
    and a cyclic descent at position 1 when w(1) > 0.  Root indices in
    ``cyclic_descents``: position-i descents map to i (1..n), the cyclic
    descent at position 1 maps to the affine marker 0.
    """
    images = w.images
    n = w.n
    desc = set()
    for i in range(1, n):
        if _type_c_key(images[i - 1], n) > _type_c_key(images[i], n):
            desc.add(i)
    if images[-1] < 0:
        desc.add(n)
    d = len(desc)
    cyclic = set(desc)
    if images[0] > 0:
        cyclic.add(0)
    return TypeCStats(frozenset(desc), d, frozenset(cyclic), len(cyclic))


# ---------------------------------------------------------------------------
# Cycle types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleType:
    """Partition of n recording cycle lengths with multiplicity."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.parts) or list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError(f"parts must be positive and weakly decreasing: {self.parts!r}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __repr__(self) -> str:
        return f"CycleType{self.parts}"


@dataclass(frozen=True)
class SignedCycleType:
    """Pair of partitions: positive-cycle lengths and negative-cycle lengths."""

    lam: tuple[int, ...]
    mu: tuple[int, ...]

    def __post_init__(self) -> None:
        for parts in (self.lam, self.mu):
            if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
                raise ValueError(f"parts must be positive and weakly decreasing: {parts!r}")

    @property
    def size(self) -> int:
        return sum(self.lam) + sum(self.mu)

    def __repr__(self) -> str:
        return f"SignedCycleType(lam={self.lam}, mu={self.mu})"


def cycle_type(w: GroupElement) -> CycleType | SignedCycleType:
    """Cycle type of a group element.

    For a signed permutation each cycle of the underlying unsigned permutation
    is classified by the product of the signs of w over its support: positive
    product contributes to lam, negative to mu.
    """
    if isinstance(w, Permutation):
        return CycleType(tuple(sorted((len(c) for c in w.cycles()), reverse=True)))
    lam: list[int] = []
    mu: list[int] = []
    for cyc in w.underlying().cycles():
        negatives = sum(1 for i in cyc if w(i) < 0)
        (lam if negatives % 2 == 0 else mu).append(len(cyc))
    return SignedCycleType(tuple(sorted(lam, reverse=True)), tuple(sorted(mu, reverse=True)))


class HistogramPair(NamedTuple):
    A: tuple[int, ...]
    N: tuple[int, ...]


@lru_cache(maxsize=None)
def descent_histograms(n: int) -> HistogramPair:
    """Descent histograms at size n, both computed by full enumeration.

    A[r] counts w in S_n with r descents (r = 0..n-1); N[r-1] counts w in C_n
    with r cyclic descents (r = 1..n).  The identity N[r] = 2^n A[r] is a
    theorem, not an assumption: both sides here come from brute force.
    """
    A = [0] * n
    for w in all_permutations(n):
        A[len(type_a_stats(w).descents)] += 1
    N = [0] * n
    for v in all_signed_permutations(n):
        N[type_c_stats(v).cd - 1] += 1
    return HistogramPair(tuple(A), tuple(N))


# ---------------------------------------------------------------------------
# Group algebra over exact rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupAlgebraElement:
    """Sparse rational combination of group elements; zero terms are omitted.

    Exact measures on the group, such as the x_k elements and the shuffle
    models' outcome distributions, are the elements built by ``probability``.
    """

    kind: GroupKind
    coeffs: Mapping[GroupElement, Fraction]

    def __post_init__(self) -> None:
        _check_family(self.kind.family)
        expected = Permutation if self.kind.family == "A" else SignedPermutation
        cleaned = {}
        for w, c in self.coeffs.items():
            c = Fraction(c)
            if w.n != self.kind.n:
                raise ValueError(f"element {w!r} does not belong to {self.kind}")
            if not isinstance(w, expected):
                raise ValueError(f"element {w!r} has wrong type for family {self.kind.family}")
            if c != 0:
                cleaned[w] = c
        object.__setattr__(self, "coeffs", cleaned)

    def coefficient(self, w: GroupElement) -> Fraction:
        return self.coeffs.get(w, Fraction(0))

    def total(self) -> Fraction:
        return sum(self.coeffs.values(), Fraction(0))

    def is_probability(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values()) and self.total() == 1

    def support(self) -> set[GroupElement]:
        return set(self.coeffs)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return convolve(self, other)

    def invert(self) -> "GroupAlgebraElement":
        return invert_element(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.kind == other.kind and self.coeffs == other.coeffs

    @classmethod
    def delta(cls, kind: GroupKind, w: GroupElement) -> "GroupAlgebraElement":
        return cls(kind, {w: Fraction(1)})

    @classmethod
    def probability(cls, kind: GroupKind, coeffs: Mapping) -> "GroupAlgebraElement":
        """A probability element: raises ValueError, naming the total, unless
        every coefficient is nonnegative and they sum to exactly 1."""
        element = cls(kind, coeffs)
        _require_probability(element.coeffs)
        return element

    def class_measure(self) -> "ClassMeasure":
        """Push a probability element forward to conjugacy classes."""
        masses: dict = {}
        for w, c in self.coeffs.items():
            t = cycle_type(w)
            masses[t] = masses.get(t, Fraction(0)) + c
        return ClassMeasure(masses)


def _require_probability(masses: Mapping) -> None:
    total = sum(masses.values(), Fraction(0))
    if total != 1 or any(m < 0 for m in masses.values()):
        raise ValueError(
            f"masses must be nonnegative and sum to exactly 1; they sum to {total}"
        )


def convolve(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Group-algebra product: the coefficient of u*v picks up a_u * b_v."""
    if a.kind != b.kind:
        raise ValueError(f"mismatched group kinds: {a.kind} vs {b.kind}")
    out: dict[GroupElement, Fraction] = {}
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            w = u * v
            out[w] = out.get(w, Fraction(0)) + cu * cv
    return GroupAlgebraElement(a.kind, out)


def invert_element(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Send each coefficient c_w to the element w^{-1}."""
    return GroupAlgebraElement(a.kind, {w.inverse(): c for w, c in a.coeffs.items()})


@dataclass(frozen=True)
class ClassMeasure:
    """Probability measure on (signed) cycle types with exact rational masses."""

    masses: Mapping[CycleType | SignedCycleType, Fraction]

    def __post_init__(self) -> None:
        cleaned = {t: Fraction(m) for t, m in self.masses.items() if m != 0}
        _require_probability(cleaned)
        object.__setattr__(self, "masses", cleaned)

    def mass(self, t: CycleType | SignedCycleType) -> Fraction:
        return self.masses.get(t, Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassMeasure):
            return NotImplemented
        return self.masses == other.masses

    @classmethod
    def from_counts(cls, counts: Mapping, total: int) -> "ClassMeasure":
        return cls({t: Fraction(c, total) for t, c in counts.items()})
