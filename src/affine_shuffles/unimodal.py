"""Unimodal permutations: recognition, enumeration, cycle shapes, and the
two-to-one map from 2-stack flip-shuffle outcomes.

A permutation is unimodal when its one-line form increases strictly to a
maximum and then decreases strictly; there are 2^{n-1} of them on n symbols.
The shape of a cycle on distinct symbols relabels it through the unique
order-preserving bijection onto 1..k; grouping unimodal permutations by their
multiset of cycle shapes always gives classes of size exactly 2^{l-1}, where
l is the number of distinct shapes present.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .fq import count_self_conjugate_irreducibles
from .perm import Permutation, SignedPermutation, _trusted

__all__ = [
    "CycleShape",
    "is_unimodal",
    "enumerate_unimodal",
    "cycle_shape",
    "shape_multiset",
    "gannon_histogram",
    "transitive_unimodal_count",
    "eta_map",
]


def is_unimodal(w: Permutation) -> bool:
    """True when the one-line form rises to its maximum and then falls."""
    images = w.images
    peak = images.index(w.n)
    return (all(map(operator.lt, images[:peak], images[1:peak + 1]))
            and all(map(operator.gt, images[peak:-1], images[peak + 1:])))


@lru_cache(maxsize=32)
def enumerate_unimodal(n: int) -> tuple[Permutation, ...]:
    """All 2^{n-1} unimodal permutations of n, built by doubling.

    Symbol 1 sits at one end of a unimodal word, and the rest of the word is
    unimodal on 2..n; so each word on v+1..n grows into two on v..n, with v
    appended and with v prepended.  Subset ``mask`` of {1..n-1} (bit i-1 set
    when i ascends before n, the rest descend after) comes ``mask``-th.

    Memoised: every unimodal check reads the one tuple per n, so a test that
    patches anything beneath it must ``cache_clear()`` it first.
    """
    if n < 1:
        raise ValueError("n must be positive")
    words = [(n,)]
    for v in range(n - 1, 0, -1):
        words = [grown for w in words for grown in (w + (v,), (v,) + w)]
    return tuple(_trusted(Permutation, w) for w in words)


def _is_n_cycle(images: tuple[int, ...]) -> bool:
    # The orbit of 1 is everything: no cycle list is built.
    length, j = 1, images[0]
    while j != 1:
        length, j = length + 1, images[j - 1]
    return length == len(images)


@dataclass(frozen=True)
class CycleShape:
    """Order-isomorphism class of a single cycle on distinct symbols.

    The stored word is the canonical rotation starting at the image of the
    smallest symbol, so equal cycles written from different starting points
    compare equal.
    """

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.word)
        if sorted(self.word) != list(range(1, k + 1)):
            raise ValueError(f"shape word must use each of 1..{k} once: {self.word!r}")
        object.__setattr__(self, "word", _canonical_rotation(self.word))

    @property
    def size(self) -> int:
        return len(self.word)

    def __repr__(self) -> str:
        return "(" + " ".join(str(v) for v in self.word) + ")"


def _canonical_rotation(word: tuple[int, ...]) -> tuple[int, ...]:
    successor = {word[i]: word[(i + 1) % len(word)] for i in range(len(word))}
    out = [successor[1]] if len(word) > 1 else [1]
    while len(out) < len(word):
        out.append(successor[out[-1]])
    return tuple(out)


def cycle_shape(cycle: Sequence[int]) -> CycleShape:
    """Shape of a cycle word on distinct symbols, via the order isomorphism."""
    symbols = list(cycle)
    if len(set(symbols)) != len(symbols):
        raise ValueError(f"cycle symbols must be distinct: {cycle!r}")
    relabel = {s: i for i, s in enumerate(sorted(symbols), start=1)}
    return CycleShape(tuple(relabel[s] for s in symbols))


def shape_multiset(w: Permutation) -> tuple[tuple[CycleShape, int], ...]:
    """Multiset of cycle shapes of w, as sorted (shape, multiplicity) pairs."""
    counts: dict[CycleShape, int] = {}
    for cyc in w.cycles():
        s = cycle_shape(cyc)
        counts[s] = counts.get(s, 0) + 1
    return tuple(sorted(counts.items(), key=lambda item: (item[0].size, item[0].word)))


def gannon_histogram(n: int) -> dict[tuple[tuple[CycleShape, int], ...], int]:
    """Unimodal permutations of n grouped by their multiset of cycle shapes."""
    histogram: dict[tuple[tuple[CycleShape, int], ...], int] = {}
    for w in enumerate_unimodal(n):
        key = shape_multiset(w)
        histogram[key] = histogram.get(key, 0) + 1
    return histogram


def transitive_unimodal_count(n: int) -> int:
    """Number of unimodal n-cycles, which equals the number of self-reciprocal
    monic irreducibles of degree 2n over F_2: (1/2n) sum_{odd d | n} mu(d) 2^{n/d}."""
    return count_self_conjugate_irreducibles(2 * n, 2)


def _validate_two_shuffle_outcome(w: SignedPermutation) -> None:
    # A valid outcome interleaves the flipped top block -j..-1 (appearing in
    # that order) with the untouched block j+1..n (in increasing order).
    negatives = [v for v in w.images if v < 0]
    positives = [v for v in w.images if v > 0]
    j = len(negatives)
    if negatives != list(range(-j, 0)):
        raise ValueError(f"not a 2-stack flip-shuffle outcome: {w.to_text()}")
    if positives != list(range(j + 1, w.n + 1)):
        raise ValueError(f"not a 2-stack flip-shuffle outcome: {w.to_text()}")


def eta_map(outcome: SignedPermutation) -> Permutation:
    """Two-to-one map from 2-stack flip-shuffle outcomes to unimodal permutations.

    Take the inverse, drop signs, then conjugate by i -> n+1-i.  The result is
    unimodal, the map hits every unimodal permutation exactly twice (the top
    card's sign can always be flipped), and unsigned cycle type is preserved.
    """
    _validate_two_shuffle_outcome(outcome)
    n = outcome.n
    unsigned = outcome.inverse().underlying().images
    result = Permutation(tuple(n + 1 - v for v in reversed(unsigned)))
    if not is_unimodal(result):
        raise AssertionError(f"eta image {result.to_text()} is not unimodal")
    return result
