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

from dataclasses import dataclass
from typing import Sequence

from .fq import count_self_conjugate_irreducibles
from .perm import Permutation, SignedPermutation

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
    rising = all(images[i] < images[i + 1] for i in range(peak))
    falling = all(images[i] > images[i + 1] for i in range(peak, w.n - 1))
    return rising and falling


def enumerate_unimodal(n: int) -> list[Permutation]:
    """All 2^{n-1} unimodal permutations of n, built directly.

    Each subset of {1..n-1} gives one: its members ascend before n, the rest
    descend after.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    values = list(range(1, n))
    for mask in range(2 ** (n - 1)):
        rising = [v for i, v in enumerate(values) if mask >> i & 1]
        falling = [v for i, v in enumerate(values) if not mask >> i & 1]
        out.append(Permutation(tuple(rising + [n] + falling[::-1])))
    return out


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
    unsigned = outcome.inverse().underlying()
    result = Permutation(tuple(n + 1 - unsigned(n + 1 - i) for i in range(1, n + 1)))
    if not is_unimodal(result):
        raise AssertionError(f"eta image {result.to_text()} is not unimodal")
    return result
