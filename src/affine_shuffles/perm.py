"""Group elements of S_n and the hyperoctahedral group C_n.

Permutations are stored in one-line form: position i holds w(i), with symbols
1..n.  Signed permutations allow negated images, with the action extended to
negative arguments by w(-i) = -w(i).  The composition convention throughout is

    (u * v)(i) = u(v(i)),

and every statement about shuffle models elsewhere in the package is made
against this convention.  ``Permutation`` and ``SignedPermutation`` share one
body, ``GroupElement``, and add only their validation; a product of elements
of different types or sizes raises ValueError.  ``ELEMENT_TYPES`` maps a
family, "A" or "C", to its element type.

The module also houses the one descent statistic the measures are built
from, ``cyclic_descents`` (d, cd and maj are its size without 0, its size
and its sum), the cyclic-descent class index, conjugacy-class data (cycle
types, signed cycle types), descent histograms, and sparse group-algebra
arithmetic over exact rationals; its kernels sum integer numerators over
the lcm of the coefficients' denominators and make one ``Fraction`` per
result entry.

Every affine shuffle element x_k reads w only through its cyclic descent set
Cdes(w) (Cellini: the coefficient of w is (1/k^r) times the number of alcove
points whose wall set avoids Cdes(w)), so x_k is constant on the classes of
equal Cdes.  ``descent_classes`` enumerates a group once into one byte buffer
of rank codes, keys every element by comparing the buffer with itself shifted
by one byte, and keeps, per class, its Cdes, its first element and its
members packed as signed bytes; computing a route's value once on the first
element and copying it to every member is exact.  S_8 has 254 classes for
40,320 elements, C_6 126 for 46,080.  The index does not call
``cyclic_descents``, which the closed forms read, so the two are independent;
``descent_histograms`` folds the class sizes of both indexes.  The index is
an ``lru_cache``: a test that monkeypatches it, or its key step
``_cdes_keys``, must ``cache_clear()`` it first.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Collection, Iterator, Mapping, NamedTuple

__all__ = [
    "GroupElement",
    "Permutation",
    "SignedPermutation",
    "CycleType",
    "SignedCycleType",
    "ELEMENT_TYPES",
    "GroupKind",
    "GroupAlgebraElement",
    "ClassMeasure",
    "DescentClass",
    "descent_classes",
    "cyclic_descents",
    "cycle_type",
    "HistogramPair",
    "descent_histograms",
    "all_permutations",
    "all_signed_permutations",
    "convolve",
    "invert_element",
]


@dataclass(frozen=True)
class GroupElement:
    """Element of S_n or C_n (n >= 1) in one-line form: ``images[i-1] == w(i)``,
    acting on negative arguments by w(-i) = -w(i).

    Only the subclasses are built; each validates its images in its
    ``__post_init__``.  Elements of different types are never equal, and
    their product raises.
    """

    # Declared by hand: ``dataclass(slots=True)`` rebuilds the class and, on
    # Python 3.11, keeps the discarded original alive.
    __slots__ = ("images",)
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        raise TypeError("build a Permutation or a SignedPermutation, which validate their images")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= abs(i) <= self.n:
            raise ValueError(f"argument {i} outside +-1..{self.n}")
        return self.images[i - 1] if i > 0 else -self.images[-i - 1]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if type(other) is not type(self) or other.n != self.n:
            raise ValueError(f"cannot compose {self!r} with {other!r}: "
                             "the types or sizes differ")
        images = self.images
        return _trusted(type(self), tuple(images[v - 1] if v > 0 else -images[-v - 1]
                                          for v in other.images))

    def inverse(self) -> "GroupElement":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[abs(v) - 1] = i if v > 0 else -i
        return _trusted(type(self), tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "GroupElement":
        return cls(tuple(int(part) for part in text.split(",")))

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.images)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()})"


@dataclass(frozen=True, repr=False)
class Permutation(GroupElement):
    """Element of S_n: the images are 1..n in some order."""

    __slots__ = ()

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("a permutation needs at least one symbol")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images!r}")

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest member, ordered by it."""
        images = self.images  # read directly: the range check of __call__ is moot here
        seen = [False] * len(images)
        out = []
        for start in range(1, len(images) + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = images[start - 1]
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = images[j - 1]
            out.append(tuple(cyc))
        return out


@dataclass(frozen=True, repr=False)
class SignedPermutation(GroupElement):
    """Element of C_n: images may be negated, absolute values are a
    bijection.

    The action on negative arguments, w(-i) = -w(i), makes the sign-product
    rule for cycle types well defined.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("a signed permutation needs at least one symbol")
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)) or 0 in self.images:
            raise ValueError(f"not a signed permutation on 1..{n}: {self.images!r}")

    def underlying(self) -> Permutation:
        """The unsigned permutation i -> |w(i)|."""
        return _trusted(Permutation, tuple(abs(v) for v in self.images))


# The element type of each family: "A" is S_n, "C" is C_n.
ELEMENT_TYPES: dict[str, type[GroupElement]] = {"A": Permutation, "C": SignedPermutation}


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
        size = math.factorial(self.n)
        return size if self.family == "A" else size * 2**self.n


def _check_family(family: str) -> None:
    if family not in ELEMENT_TYPES:
        raise ValueError(f"family must be 'A' or 'C', got {family!r}")


# The slot's own setter, which a frozen dataclass's __setattr__ does not block.
_SET_IMAGES = GroupElement.__dict__["images"].__set__


def _trusted(cls: type[GroupElement], images: tuple[int, ...]) -> GroupElement:
    # An element whose images are valid by construction, built without the
    # constructor's check (the sort and compare are half of enumeration).
    w = object.__new__(cls)
    _SET_IMAGES(w, images)
    return w


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"a group element needs at least one symbol, got n={n}")


def all_permutations(n: int) -> Iterator[Permutation]:
    """S_n in the lexicographic order of ``itertools.permutations``."""
    _check_size(n)
    for images in itertools.permutations(range(1, n + 1)):
        yield _trusted(Permutation, images)


def all_signed_permutations(n: int) -> Iterator[SignedPermutation]:
    """C_n: each permutation in S_n's order, then its sign patterns in the
    order of ``itertools.product((1, -1), repeat=n)``."""
    _check_size(n)
    for images in itertools.permutations(range(1, n + 1)):
        for signed in itertools.product(*((v, -v) for v in images)):
            yield _trusted(SignedPermutation, signed)


# ---------------------------------------------------------------------------
# Cyclic descents and their class index
# ---------------------------------------------------------------------------

_AFFINE = frozenset((0,))  # the affine marker, as a set to join with the descents


def cyclic_descents(w: GroupElement) -> frozenset[int]:
    """Cdes(w), the cyclic descent set of w in S_n or C_n, as root indices:
    i stands for the simple root at position i and 0 for the affine root.

    In S_n, w has a descent at each position i < n with w(i) > w(i+1), and
    the marker 0 exactly when w(n) > w(1).  In C_n, in the order
    1 < 2 < ... < n < -n < ... < -2 < -1, w has a descent at each position
    i < n with w(i) > w(i+1), one at position n when w(n) < 0, and the
    marker 0 when w(1) > 0.  The cyclic descent number cd(w) is the size of
    the set, the descent number d(w) its size without 0, and in S_n the
    major index maj(w) its sum.
    """
    images = w.images
    n = len(images)
    # In that order a comes after b exactly when a > b as integers and the
    # two have the same sign, or when a < 0 < b; images in S_n are positive.
    desc = [
        i for i in range(1, n)
        if (images[i - 1] > images[i]) != (images[i - 1] * images[i] < 0)
    ]
    if images[-1] < 0:
        desc.append(n)
    descents = frozenset(desc)
    affine = images[-1] > images[0] if isinstance(w, Permutation) else images[0] > 0
    return descents | _AFFINE if affine else descents


class DescentClass(NamedTuple):
    """The elements of one group with one cyclic descent set.

    ``packed`` holds every member's images, n signed bytes each (n <= 10
    under ``GROUP_MAX_ORDER``), in enumeration order; ``first`` is the first
    of them.  It is the members' slices of the group's one enumeration
    buffer, joined, with the rank codes of negative images mapped back to
    signed bytes.  Members are unpacked on demand, so the index holds no
    element object beyond ``first``.
    """

    cdes: frozenset[int]
    first: GroupElement
    packed: bytes

    @property
    def size(self) -> int:
        return len(self.packed) // self.first.n

    def members(self) -> list[GroupElement]:
        """Every element of the class, in enumeration order."""
        cls = type(self.first)
        return [_trusted(cls, images)
                for images in struct.iter_unpack(f"{self.first.n}b", self.packed)]


def _cdes_keys(family: str, n: int, flat: bytes) -> bytes:
    """n key bytes per element of ``flat``, which holds each element's rank
    codes (the images, with -v coded as 2n + 1 - v), n bytes per element.

    Byte i - 1 of a key, for i < n, is 1 where the element has a descent at
    position i: rank codes order 1 < ... < n < -n < ... < -1 as integers.
    Byte n - 1 holds the marker 0 in its bit 0 and, in type C, the descent at
    n in its bit 1: [w(n) > w(1)] in type A, 2 [w(n) < 0] + [w(1) > 0] in
    type C.  Two elements share a key exactly when they share their Cdes.
    """
    keys = bytearray(map(operator.gt, flat, flat[1:] + b"\0"))
    firsts, lasts = flat[::n], flat[n - 1::n]
    if family == "A":
        keys[n - 1::n] = bytes(map(operator.gt, lasts, firsts))
    else:
        negative = bytes(2 * (c > n) for c in range(256))
        positive = bytes(c <= n for c in range(256))
        keys[n - 1::n] = bytes(map(operator.add, lasts.translate(negative),
                                   firsts.translate(positive)))
    return bytes(keys)


def _decode_cdes(key: bytes) -> frozenset[int]:
    # Built in the order ``cyclic_descents`` builds its set (descents, then
    # 0), so that equal sets also iterate alike.
    desc = [i for i in range(1, len(key)) if key[i - 1]]
    if key[-1] & 2:
        desc.append(len(key))
    descents = frozenset(desc)
    return descents | _AFFINE if key[-1] & 1 else descents


GROUP_MAX_ORDER = 3_628_800
"""Largest group the class index enumerates, 10!, which admits S_10 and C_7:
at n bytes per element, S_12 alone would take 479,001,600 x 12 bytes."""


@lru_cache(maxsize=16)
def descent_classes(family: str, n: int) -> tuple[DescentClass, ...]:
    """S_n (family "A") or C_n (family "C") split by cyclic descent set.

    Classes come in the order their first elements are enumerated, so
    scanning the classes' first elements meets the classes in the same order
    as scanning the whole group; members keep enumeration order.  The group
    is enumerated once, in the order of ``all_permutations`` or
    ``all_signed_permutations``, into one buffer of rank codes, n bytes per
    element, and ``_cdes_keys`` keys every element at once.  One loop files
    each element's bytes under its key; each class then maps its rank codes
    to signed bytes in one ``bytes.translate`` and decodes its Cdes and its
    first element once.  The keys equal ``cyclic_descents(w)``, which the
    index does not call.
    """
    _check_family(family)
    _check_size(n)
    if GroupKind(family, min(n, 13)).order() > GROUP_MAX_ORDER:  # no factorial past 13!
        raise ValueError(f"order past GROUP_MAX_ORDER = {GROUP_MAX_ORDER:,}: {family} at n={n}")
    perms = itertools.permutations(range(1, n + 1))
    if family == "A":
        flat = bytes(itertools.chain.from_iterable(perms))
    else:
        flat = bytes(itertools.chain.from_iterable(itertools.chain.from_iterable(
            itertools.product(*((v, 2 * n + 1 - v) for v in images)) for images in perms
        )))
    keys = _cdes_keys(family, n, flat)
    groups: dict[bytes, bytearray] = {}
    for start in range(0, len(flat), n):
        key = keys[start:start + n]
        images = groups.get(key)
        if images is None:
            images = groups[key] = bytearray()
        images += flat[start:start + n]
    # rank code c > n stands for -(2n + 1 - c), a signed byte
    signed = bytes(c if c <= n else (c - 2 * n - 1) % 256 for c in range(256))
    cls = ELEMENT_TYPES[family]
    unpack_first = struct.Struct(f"{n}b").unpack_from
    out = []
    for key, images in groups.items():
        packed = bytes(images).translate(signed)
        out.append(DescentClass(_decode_cdes(key), _trusted(cls, unpack_first(packed)), packed))
    return tuple(out)


# ---------------------------------------------------------------------------
# Cycle types
# ---------------------------------------------------------------------------

def _check_parts(parts: tuple[int, ...]) -> None:
    if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise ValueError(f"parts must be positive and weakly decreasing: {parts!r}")


@dataclass(frozen=True)
class CycleType:
    """Partition of n recording cycle lengths with multiplicity."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_parts(self.parts)

    def __repr__(self) -> str:
        return f"CycleType{self.parts}"


@dataclass(frozen=True)
class SignedCycleType:
    """Pair of partitions: positive-cycle lengths and negative-cycle lengths."""

    lam: tuple[int, ...]
    mu: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_parts(self.lam)
        _check_parts(self.mu)

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
    images = w.images
    for cyc in w.underlying().cycles():
        negatives = sum(1 for i in cyc if images[i - 1] < 0)
        (lam if negatives % 2 == 0 else mu).append(len(cyc))
    return SignedCycleType(tuple(sorted(lam, reverse=True)), tuple(sorted(mu, reverse=True)))


class HistogramPair(NamedTuple):
    A: tuple[int, ...]
    N: tuple[int, ...]


@lru_cache(maxsize=16)
def descent_histograms(n: int) -> HistogramPair:
    """Descent histograms at size n, folded from the class indexes.

    A[r] counts w in S_n with r descents (r = 0..n-1); N[r-1] counts w in C_n
    with r cyclic descents (r = 1..n).  The descents of w are its cyclic
    descents other than the marker 0, so A[r] sums the sizes of the classes
    of ``descent_classes("A", n)`` with |Cdes \\ {0}| = r, and N[r-1] those
    of ``descent_classes("C", n)`` with |Cdes| = r.  The identity
    N[r] = 2^n A[r] is a theorem, not an assumption: each side is counted
    from its own group's enumeration.
    """
    A = [0] * n
    for c in descent_classes("A", n):
        A[len(c.cdes - _AFFINE)] += c.size
    N = [0] * n
    for c in descent_classes("C", n):
        N[len(c.cdes) - 1] += c.size
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
        expected = ELEMENT_TYPES[self.kind.family]
        cleaned = {}
        for w, c in self.coeffs.items():
            if type(c) is not Fraction:  # shared Fraction values stay shared
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

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return convolve(self, other)

    @classmethod
    def probability(cls, kind: GroupKind, coeffs: Mapping) -> "GroupAlgebraElement":
        """A probability element: raises ValueError, naming the total, unless
        every coefficient is nonnegative and they sum to exactly 1."""
        element = cls(kind, coeffs)
        _require_probability(element.coeffs)
        return element

    @classmethod
    def probability_per_class(
        cls, kind: GroupKind, value: Callable[[DescentClass], Fraction]
    ) -> "GroupAlgebraElement":
        """The probability element that gives every member of each class of
        ``descent_classes(*kind)`` the class's ``value``; classes of value 0
        are never unpacked."""
        coeffs = {}
        for descent_class in descent_classes(*kind):
            c = value(descent_class)
            if c:
                coeffs.update(dict.fromkeys(descent_class.members(), c))
        return cls.probability(kind, coeffs)

    def class_measure(self) -> "ClassMeasure":
        """Push a probability element forward to conjugacy classes."""
        numerators, denom = _over_common_denominator(self.coeffs.values())
        masses: dict = {}
        for w, c in zip(self.coeffs, numerators):
            t = cycle_type(w)
            masses[t] = masses.get(t, 0) + c
        return ClassMeasure({t: Fraction(m, denom) for t, m in masses.items()})


def _over_common_denominator(values: Collection[Fraction]) -> tuple[list[int], int]:
    # Exact rationals as integer numerators over the lcm of their
    # denominators, so that sums and products need no Fraction until the end.
    denom = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (denom // v.denominator) for v in values], denom


def _require_probability(masses: Mapping) -> None:
    numerators, denom = _over_common_denominator(masses.values())
    total = sum(numerators)
    if total != denom or any(m < 0 for m in numerators):
        raise ValueError(
            "masses must be nonnegative and sum to exactly 1; "
            f"they sum to {Fraction(total, denom)}"
        )


def convolve(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Group-algebra product: the coefficient of u*v picks up a_u * b_v.

    Each operand is scaled to integer numerators over the lcm of its
    denominators, da and db; each coefficient of the product is then an
    integer sum over da * db, made a ``Fraction`` once.  The result is exact,
    omits the terms that cancel to 0, and lists its elements in the order in
    which the pairs (u, v), taken in the operands' orders, first reach them.
    u * v is composed on image tuples: v's images index the table
    (0, u(1), ..., u(n), -u(n), ..., -u(1)), which gives u(-i) = -u(i) at
    index -i, and a product of two valid elements needs no check.
    """
    if a.kind != b.kind:
        raise ValueError(f"mismatched group kinds: {a.kind} vs {b.kind}")
    a_numerators, da = _over_common_denominator(a.coeffs.values())
    b_numerators, db = _over_common_denominator(b.coeffs.values())
    # The leading index 0 keeps each composed key a tuple, also at n = 1.
    right = [(operator.itemgetter(0, *v.images), cv) for v, cv in zip(b.coeffs, b_numerators)]
    sums: dict[tuple[int, ...], int] = {}
    for u, cu in zip(a.coeffs, a_numerators):
        images = u.images
        table = (0, *images, *(-x for x in reversed(images)))
        for compose, cv in right:
            w = compose(table)
            sums[w] = sums.get(w, 0) + cu * cv
    cls = ELEMENT_TYPES[a.kind.family]
    denom = da * db
    return GroupAlgebraElement(
        a.kind, {_trusted(cls, w[1:]): Fraction(c, denom) for w, c in sums.items() if c}
    )


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

    @classmethod
    def from_counts(cls, counts: Mapping, total: int) -> "ClassMeasure":
        return cls({t: Fraction(c, total) for t, c in counts.items()})
