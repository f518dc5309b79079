"""Physical card-shuffling models and total variation distance.

Conventions, fixed once and validated against the closed-form measures:

* the deck starts face down as 1..n read top to bottom;
* "flip over" a stack reverses its order and negates every card;
* the final deck read top to bottom is the one-line form of the outcome;
* with the package's composition convention, each model's exact outcome
  distribution equals the *inverse* of the corresponding affine shuffle
  element.

Each exact distribution is enumerated as a probability element of the group
algebra (``GroupAlgebraElement.probability``), the same type as the x_k
elements it inverts.  The samplers draw through one kernel on plain tuples,
``_riffle_images``, with a caller-supplied seeded generator, never global
randomness; the exact side and the sampler side share only the cut stacks of
``_stacks_for_cut``.  A draw's ``rng.randrange`` calls (arguments and order)
fix its outcome for a seed, and tests pin the streams of all three samplers.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Iterator, Sequence

from .numth import binomial
from .perm import (
    GroupAlgebraElement,
    GroupElement,
    GroupKind,
    Permutation,
    SignedPermutation,
    all_permutations,
    descent_histograms,
    type_a_stats,
)
from .report import check

__all__ = [
    "riffle_distribution",
    "riffle_sample",
    "affine_c_shuffle_distribution",
    "affine_c_shuffle_sample",
    "affine_a_2shuffle_distribution",
    "affine_a_2shuffle_sample",
    "two_shuffle_outcomes",
    "total_variation",
    "tv_riffle_to_uniform",
    "tv_affine_c_to_uniform",
    "theorem_tv_check",
]


def _multiset_permutations(multiplicities: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # All arrangements of the word with multiplicities[i] copies of symbol i.
    total = sum(multiplicities)
    counts = list(multiplicities)
    word: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(word) == total:
            yield tuple(word)
            return
        for s, c in enumerate(counts):
            if c:
                counts[s] -= 1
                word.append(s)
                yield from rec()
                word.pop()
                counts[s] += 1

    return rec()


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# GSR riffle shuffles
# ---------------------------------------------------------------------------

def riffle_distribution(n: int, k: int) -> GroupAlgebraElement:
    """Exact k-pile riffle measure: P(w) = binom(k + n - d(w) - 1, n) / k^n.

    Its sum-to-1 guard is the Worpitzky identity
    sum_r A_r binom(k+n-r-1, n) = k^n.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    masses = {}
    for w in all_permutations(n):
        d = len(type_a_stats(w).descents)
        mass = Fraction(binomial(k + n - d - 1, n), k**n)
        if mass:
            masses[w] = mass
    return GroupAlgebraElement.probability(GroupKind("A", n), masses)


@functools.lru_cache(maxsize=512)
def _stacks_for_cut(
    sizes: tuple[int, ...], flip_odd_indexed: bool | None
) -> tuple[tuple[int, ...], ...]:
    # Stack s takes the next sizes[s] cards off the top; flipping reverses and
    # negates.  flip_odd_indexed True flips stacks 1,3,... (1-based), False
    # flips 2,4,...; None flips nothing.
    stacks = []
    start = 0
    for s, j in enumerate(sizes, start=1):
        cards = range(start + 1, start + j + 1)
        start += j
        if flip_odd_indexed is not None and (s % 2 == 1) == flip_odd_indexed:
            cards = [-c for c in reversed(cards)]
        stacks.append(tuple(cards))
    return tuple(stacks)


def _merge(stacks: Sequence[Sequence[int]], word: tuple[int, ...]) -> tuple[int, ...]:
    positions = [0] * len(stacks)
    out = []
    for s in word:
        out.append(stacks[s][positions[s]])
        positions[s] += 1
    return tuple(out)


def _riffle_images(stacks: Sequence[Sequence[int]], rng: random.Random) -> tuple[int, ...]:
    # The draw kernel: drop the top card of a stack chosen with probability
    # proportional to its remaining size (uniform over interleavings), straight
    # into the one-line images.  One rng.randrange(cards left) per card.
    left = [len(stack) for stack in stacks]
    out = []
    for total in range(sum(left), 0, -1):
        pick = rng.randrange(total)
        s = 0
        while pick >= left[s]:
            pick -= left[s]
            s += 1
        out.append(stacks[s][-left[s]])
        left[s] -= 1
    return tuple(out)


def _multinomial_cut(
    n: int, k: int, flip_odd_indexed: bool | None, rng: random.Random
) -> tuple[tuple[int, ...], ...]:
    # Each card goes to one of k stacks, one rng.randrange(k) per card.
    sizes = [0] * k
    for _ in range(n):
        sizes[rng.randrange(k)] += 1
    return _stacks_for_cut(tuple(sizes), flip_odd_indexed)


def riffle_sample(n: int, k: int, rng: random.Random) -> Permutation:
    """One draw from ``riffle_distribution(n, k)``.

    The physical cut-and-interleave process produces the inverse orientation,
    so the merged deck is inverted before returning.
    """
    return Permutation(_riffle_images(_multinomial_cut(n, k, None, rng), rng)).inverse()


# ---------------------------------------------------------------------------
# Affine type C k-shuffles
# ---------------------------------------------------------------------------

def _affine_c_outcomes(n: int, k: int) -> Iterator[SignedPermutation]:
    # One outcome per (cut, interleaving) pair, so an element may repeat.
    flip_odd = k % 2 == 0  # odd k flips even stacks, even k flips odd stacks
    for sizes in _compositions(n, k):
        stacks = _stacks_for_cut(sizes, flip_odd)
        for word in _multiset_permutations(sizes):
            yield SignedPermutation(_merge(stacks, word))


def affine_c_shuffle_distribution(n: int, k: int) -> GroupAlgebraElement:
    """Exact outcome distribution of the k-stack flip-and-riffle model.

    Cut multinomially into k stacks, flip the even-numbered stacks when k is
    odd (the odd-numbered ones when k is even), then interleave uniformly.
    Every (cut, interleaving) pair carries probability 1/k^n.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    # The sum-to-1 guard also checks that k^n outcomes were enumerated.
    masses: dict[GroupElement, Fraction] = {}
    step = Fraction(1, k**n)
    for outcome in _affine_c_outcomes(n, k):
        masses[outcome] = masses.get(outcome, Fraction(0)) + step
    return GroupAlgebraElement.probability(GroupKind("C", n), masses)


def affine_c_shuffle_sample(n: int, k: int, rng: random.Random) -> SignedPermutation:
    """One draw from the flip-and-riffle model, via the supplied generator."""
    return SignedPermutation(affine_c_images(n, k, rng))


def affine_c_images(n: int, k: int, rng: random.Random) -> tuple[int, ...]:
    """The one-line images of one flip-and-riffle draw, not yet validated:
    the draw ``affine_c_shuffle_sample`` makes, as a plain tuple."""
    return _riffle_images(_multinomial_cut(n, k, k % 2 == 0, rng), rng)


def two_shuffle_outcomes(n: int) -> list[SignedPermutation]:
    """The 2^n distinct outcomes of the k = 2 model, in enumeration order."""
    return list(_affine_c_outcomes(n, 2))


# ---------------------------------------------------------------------------
# Affine type A 2-shuffle
# ---------------------------------------------------------------------------

def _affine_a_second_pile(n: int, j: int) -> tuple[list[int], list[int]]:
    # Remove the top j cards, put the bottom j cards on top of them; the
    # second pile is then bottom block over top block, 2j cards in all.
    top = list(range(1, j + 1))
    bottom = list(range(n - j + 1, n + 1))
    first = list(range(j + 1, n - j + 1))
    return first, bottom + top


def affine_a_2shuffle_distribution(n: int) -> GroupAlgebraElement:
    """Exact outcome distribution of the two-pile model on n cards.

    Choose an even 2j with probability binom(n, 2j)/2^{n-1}; build the second
    pile from the top j and bottom j cards; riffle the two piles uniformly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    masses: dict[GroupElement, Fraction] = {}
    denominator = 2 ** (n - 1)
    for j in range(0, n // 2 + 1):
        cut_probability = Fraction(binomial(n, 2 * j), denominator)
        if cut_probability == 0:
            continue
        first, second = _affine_a_second_pile(n, j)
        stacks = [first, second]
        sizes = (len(first), len(second))
        interleavings = list(_multiset_permutations(sizes))
        per_word = cut_probability / len(interleavings)
        for word in interleavings:
            w = Permutation(_merge(stacks, word))
            masses[w] = masses.get(w, Fraction(0)) + per_word
    return GroupAlgebraElement.probability(GroupKind("A", n), masses)


def affine_a_2shuffle_sample(n: int, rng: random.Random) -> Permutation:
    weights = [binomial(n, 2 * j) for j in range(0, n // 2 + 1)]
    pick = rng.randrange(sum(weights))
    for j, weight in enumerate(weights):
        if pick < weight:
            break
        pick -= weight
    return Permutation(_riffle_images(_affine_a_second_pile(n, j), rng))


# ---------------------------------------------------------------------------
# Total variation distance
# ---------------------------------------------------------------------------

def total_variation(d1: GroupAlgebraElement, d2: GroupAlgebraElement) -> Fraction:
    """Half the L1 distance between two distributions on the same group."""
    if d1.kind != d2.kind:
        raise ValueError(f"mismatched groups: {d1.kind} vs {d2.kind}")
    support = set(d1.coeffs) | set(d2.coeffs)
    return sum((abs(d1.coefficient(w) - d2.coefficient(w)) for w in support), Fraction(0)) / 2


def uniform_distribution(kind: GroupKind) -> GroupAlgebraElement:
    mass = Fraction(1, kind.order())
    return GroupAlgebraElement.probability(kind, {w: mass for w in kind.elements()})


def tv_riffle_to_uniform(n: int, k: int) -> Fraction:
    """TV distance of the k-riffle to uniform, via the Eulerian histogram."""
    A = descent_histograms(n).A
    nfact = math.factorial(n)
    return (
        sum(
            (
                A[r] * abs(Fraction(binomial(k + n - r - 1, n), k**n) - Fraction(1, nfact))
                for r in range(n)
            ),
            Fraction(0),
        )
        / 2
    )


def tv_affine_c_to_uniform(n: int, k: int) -> Fraction:
    """TV distance of the affine type C k-shuffle to uniform, for even k.

    Works through the cyclic-descent histogram: the outcome probability of an
    element with cd(w^{-1}) = r is binom(k/2 + n - r, n)/k^n, and inversion
    permutes the group, so no element enumeration is needed.
    """
    if k % 2:
        raise ValueError("closed-form TV is stated for even k")
    N = descent_histograms(n).N
    order = 2**n * math.factorial(n)
    return (
        sum(
            (
                N[r - 1]
                * abs(Fraction(binomial(k // 2 + n - r, n), k**n) - Fraction(1, order))
                for r in range(1, n + 1)
            ),
            Fraction(0),
        )
        / 2
    )


@check("tv_equality")
def theorem_tv_check(n: int, k: int):
    """Assert TV(affine C k-shuffle, uniform) = TV(k/2-riffle, uniform), exactly."""
    if k % 2:
        raise ValueError("the total-variation identity requires even k")
    left = tv_affine_c_to_uniform(n, k)
    right = tv_riffle_to_uniform(n, k // 2)
    if left != right:
        return {"affine_c_tv": left, "riffle_tv": right}
    return None, f"both sides {left}"
