"""Affine shuffle elements from alcove lattice-point counts.

For a root system of rank r with simple roots alpha_1..alpha_r and alpha_0 the
negative of the highest root, the k-fold dilated closed fundamental alcove is

    { y : <alpha_i, y> >= 0 for i = 1..r,  <-alpha_0, y> <= k }.

Each lattice point y of the coroot lattice Y inside it carries a wall set
I(y) in {0..r} (index 0 for the affine wall <-alpha_0, y> = k).  The counts
a_{k,I} of points with wall set exactly I define the affine k-shuffle element

    x_k = (1/k^r) sum_I a_{k,I} sum_{w : Cdes(w) cap I = empty} w,

equivalently: the coefficient of w is (1/k^r) times the number of alcove
lattice points whose wall set avoids the cyclic descent roots of w.

The formula reads w only through Cdes(w), so counting once per cyclic
descent set and reusing the count for every element with that set is exact.
``x_k_generic`` counts once per class of ``perm.descent_classes`` and copies
the count to the class's members (``GroupAlgebraElement.probability_per_class``);
``x_k_type_a_lattice`` keeps the bounded ``lru_cache`` ``_lattice_coefficient``,
which no other route uses.  It is keyed by (n, k, key), where key holds n
bytes read straight off w's images: byte i - 1 is 1 where w has a descent at
position i < n, and the last byte is 1 where w(n) > w(1), the marker 0.  The
key is decoded to Cdes(w) only on a cache miss, and the route reads neither
``perm.cyclic_descents`` nor the class index.  A test that monkeypatches what
the lattice count reads (such as ``_alcove_wall_sets``) must
``cache_clear()`` ``_lattice_coefficient`` and ``x_k_generic`` first, or
values cached before the patch hide it.

Realizations (pairing is the Euclidean dot product):

* type A_{n-1}: ambient R^n, alpha_i = e_i - e_{i+1}, alpha_0 = e_n - e_1,
  Y = integer vectors with zero coordinate sum;
* type C_n: ambient R^n, alpha_i = e_i - e_{i+1} (i < n), alpha_n = 2 e_n,
  alpha_0 = -2 e_1, Y = all integer vectors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator

from .perm import (
    GroupAlgebraElement,
    GroupKind,
    Permutation,
    _check_family,
    descent_classes,
)
from .report import check, first_difference

__all__ = [
    "RootSystem",
    "alcove_points",
    "wall_set",
    "x_k_generic",
    "x_k_type_a_lattice",
    "verify_cellini_properties",
]

Vector = tuple[int, ...]


@dataclass(frozen=True)
class RootSystem:
    """Explicit integer realization of a type A or C root system."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        _check_family(self.family)
        if self.rank < 0 or (self.family == "C" and self.rank < 1):
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")

    @classmethod
    def type_a(cls, n: int) -> "RootSystem":
        """Root system acting on S_n (rank n-1)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls("A", n - 1)

    @classmethod
    def type_c(cls, n: int) -> "RootSystem":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls("C", n)

    @property
    def ambient_dim(self) -> int:
        return self.rank + 1 if self.family == "A" else self.rank

    @cached_property  # built once: the alcove sweeps read it at every point
    def simple_roots(self) -> tuple[Vector, ...]:
        dim = self.ambient_dim
        roots = []
        for i in range(1, self.rank + 1):
            v = [0] * dim
            if self.family == "C" and i == self.rank:
                v[i - 1] = 2
            else:
                v[i - 1] = 1
                v[i] = -1
            roots.append(tuple(v))
        return tuple(roots)

    @cached_property
    def alpha_zero(self) -> Vector | None:
        """Negative of the highest root; None in the degenerate rank-0 case."""
        dim = self.ambient_dim
        if self.family == "A":
            if self.rank == 0:
                return None
            v = [0] * dim
            v[-1] = 1
            v[0] = -1
            return tuple(v)
        v = [0] * dim
        v[0] = -2
        return tuple(v)

    def kind(self) -> GroupKind:
        if self.family == "A":
            return GroupKind("A", self.rank + 1)
        return GroupKind("C", self.rank)


def _dot(u: Vector, v: Vector) -> int:
    return sum(a * b for a, b in zip(u, v))


def _weakly_decreasing(length: int, bound: int) -> Iterator[tuple[int, ...]]:
    if length == 0:
        yield ()
        return
    for first in range(bound, -1, -1):
        for rest in _weakly_decreasing(length - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=256)
def alcove_points(rs: RootSystem, k: int) -> tuple[Vector, ...]:
    """All coroot-lattice points of the closed k-dilated fundamental alcove.

    Enumeration bounds come from the defining inequalities themselves; every
    produced point is re-checked against the generic pairings.
    """
    if k < 1:
        raise ValueError("k must be positive")
    points: list[Vector] = []
    if rs.family == "A":
        n = rs.rank + 1
        if rs.rank == 0:
            return ((0,),)
        # Normalize y to u = y - y_n * (1,..,1): weakly decreasing, u_n = 0,
        # u_1 <= k; a zero-sum representative exists iff n divides sum(u).
        for u in _weakly_decreasing(n - 1, k):
            s = sum(u)
            if s % n:
                continue
            c = s // n
            points.append(tuple(ui - c for ui in u) + (-c,))
    else:
        n = rs.rank
        for y in _weakly_decreasing(n, k // 2):
            points.append(y)
    for y in points:
        if any(_dot(alpha, y) < 0 for alpha in rs.simple_roots):
            raise AssertionError(f"enumerated point violates a simple-root wall: {y}")
        a0 = rs.alpha_zero
        if a0 is not None and -_dot(a0, y) > k:
            raise AssertionError(f"enumerated point violates the affine wall: {y}")
    return tuple(points)


def wall_set(rs: RootSystem, k: int, y: Vector) -> frozenset[int]:
    """Indices of the alcove walls containing y (0 marks the affine wall)."""
    walls = {i for i, alpha in enumerate(rs.simple_roots, start=1) if _dot(alpha, y) == 0}
    a0 = rs.alpha_zero
    if a0 is not None and -_dot(a0, y) == k:
        walls.add(0)
    return frozenset(walls)


@lru_cache(maxsize=256)
def _alcove_wall_sets(rs: RootSystem, k: int) -> tuple[tuple[Vector, frozenset[int]], ...]:
    return tuple((y, wall_set(rs, k, y)) for y in alcove_points(rs, k))


@lru_cache(maxsize=128)
def x_k_generic(rs: RootSystem, k: int) -> GroupAlgebraElement:
    """The affine k-shuffle element from the a_{k,I} wall-set counts."""
    if k < 1:
        raise ValueError("k must be positive")
    denom = k**rs.rank
    wall_sets = [walls for _, walls in _alcove_wall_sets(rs, k)]
    return GroupAlgebraElement.probability_per_class(
        rs.kind(),
        lambda cls: Fraction(sum(1 for walls in wall_sets if not (walls & cls.cdes)), denom),
    )


def x_k_type_a_lattice(w: Permutation, k: int) -> Fraction:
    """Coefficient of w in the type A element, by the per-element alcove count.

    Counts the points of the k-dilated alcove whose wall set misses Cdes(w):
    zero-sum integer vectors, weakly decreasing with v_1 - v_n <= k, strictly
    decreasing at every descent of w, and with v_1 < v_n + k whenever
    w(n) > w(1); then divides by k^{n-1}.  ``alcove_points`` rejects k < 1.
    """
    if not isinstance(w, Permutation):
        raise ValueError(f"x_k_type_a_lattice needs a Permutation, got {w!r}")
    images = w.images
    return _lattice_coefficient(
        len(images), k, bytes(map(operator.gt, images, images[1:] + images[:1]))
    )


def _lattice_cdes(key: bytes) -> frozenset[int]:
    # Byte i - 1 stands for position i; position n is the marker 0.
    return frozenset(i % len(key) for i, descent in enumerate(key, start=1) if descent)


@lru_cache(maxsize=4096)
def _lattice_coefficient(n: int, k: int, key: bytes) -> Fraction:
    cdes = _lattice_cdes(key)
    count = sum(
        1 for _, walls in _alcove_wall_sets(RootSystem.type_a(n), k) if walls.isdisjoint(cdes)
    )
    return Fraction(count, k ** (n - 1))


@check("cellini_properties")
def verify_cellini_properties(rs: RootSystem, k: int, h: int):
    """Check two identities: the measure identity and the convolution law.

    * sum_I a_{k,I} |U_I| = k^r with U_I = {w : Cdes(w) cap I = empty};
    * x_k * x_h = x_{kh} coefficientwise.

    The pairs (y, w) with I(y) cap Cdes(w^{-1}) empty number the measure sum
    again, since w -> w^{-1} is a bijection, so they need no check of their own.
    """
    denom = k**rs.rank
    wall_sets = [walls for _, walls in _alcove_wall_sets(rs, k)]

    # |U_I| is the total size of the classes whose Cdes avoids I.
    classes = descent_classes(*rs.kind())
    measure_sum = sum(
        sum(cls.size for cls in classes if not (cls.cdes & walls)) for walls in wall_sets
    )
    if measure_sum != denom:
        return {"identity": "sum_I a_kI |U_I| = k^r", "left": measure_sum, "right": denom}

    xk, xh, xkh = x_k_generic(rs, k), x_k_generic(rs, h), x_k_generic(rs, k * h)
    product = xk * xh
    bad = first_difference(product.coeffs, xkh.coeffs, key=lambda v: v.images)
    if bad is not None:
        return {"identity": "x_k x_h = x_kh", "element": bad.to_text(),
                "left": product.coefficient(bad), "right": xkh.coefficient(bad)}

    return None, f"sum_I a_kI|U_I| = {measure_sum} = k^r"
