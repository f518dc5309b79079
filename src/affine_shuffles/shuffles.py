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
elements it inverts.  A sampler's draw has two parts:

* its *plan*, the fixed tuple of ``randrange`` bounds of its picks: a stack
  per card, then the cards left, ``(k,)*n + (n, ..., 1)``, for the riffle and
  flip-and-riffle models (``riffle_plan``); the total cut weight, then the
  cards left, for the two-pile model;
* its *picks*, one value below each bound, which the one merge kernel,
  ``_riffle_images``, turns into one-line images on plain tuples.

A draw is one ``rng.randrange(math.prod(plan))``, with a caller-supplied
seeded generator, never global randomness; ``_decode_picks`` reads the picks
off as that integer's mixed-radix digits, the first bound least significant.
The decoding is a bijection, so the picks are uniform on the pick tuples.
Tests pin the streams of all three samplers.  ``count_picks`` counts the
picks of many draws: it makes the same ``randrange`` calls and decodes each
distinct integer once.  The exact side and the sampler side share only the
cut stacks of ``_stacks_for_cut``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .numth import binomial
from .perm import (
    GroupAlgebraElement,
    GroupElement,
    GroupKind,
    Permutation,
    SignedPermutation,
    descent_histograms,
)
from .report import check

__all__ = [
    "riffle_distribution",
    "riffle_plan",
    "riffle_sample",
    "count_picks",
    "affine_c_shuffle_distribution",
    "affine_c_shuffle_sample",
    "affine_c_images",
    "affine_a_2shuffle_distribution",
    "affine_a_2shuffle_sample",
    "two_shuffle_outcomes",
    "total_variation",
    "uniform_distribution",
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
    return GroupAlgebraElement.probability_per_class(
        GroupKind("A", n),
        lambda cls: Fraction(binomial(k + n - len(cls.cdes - {0}) - 1, n), k**n),
    )


def _stacks_for_cut(
    cut: Iterable[tuple[int, int]], flip_odd_indexed: bool | None
) -> list[tuple[int, ...]]:
    # cut holds (1-based stack index, size) pairs in index order; stack s
    # takes the next size cards off the top; flipping reverses and negates.
    # flip_odd_indexed True flips stacks 1,3,..., False flips 2,4,...; None
    # flips nothing.
    stacks = []
    start = 0
    for s, j in cut:
        cards = range(start + 1, start + j + 1)
        start += j
        if flip_odd_indexed is not None and (s % 2 == 1) == flip_odd_indexed:
            cards = [-c for c in reversed(cards)]
        stacks.append(tuple(cards))
    return stacks


def _merge(stacks: Sequence[Sequence[int]], word: tuple[int, ...]) -> tuple[int, ...]:
    positions = [0] * len(stacks)
    out = []
    for s in word:
        out.append(stacks[s][positions[s]])
        positions[s] += 1
    return tuple(out)


def _riffle_images(stacks: Sequence[Sequence[int]], picks: Sequence[int]) -> tuple[int, ...]:
    # The merge kernel: each pick, below the number of cards left, drops the
    # top card of the stack it falls in when the stacks are laid end to end by
    # remaining size.  Uniform picks make every interleaving equally likely.
    left = [len(stack) for stack in stacks]
    out = []
    for pick in picks:
        s = 0
        while pick >= left[s]:
            pick -= left[s]
            s += 1
        out.append(stacks[s][-left[s]])
        left[s] -= 1
    return tuple(out)


def riffle_plan(n: int, k: int) -> tuple[int, ...]:
    """The bounds of the picks of one riffle or flip-and-riffle draw: a stack
    for each card, then the cards left as they are dropped."""
    return (k,) * n + tuple(range(n, 0, -1))


def _decode_picks(plan: Sequence[int], value: int) -> tuple[int, ...]:
    # The mixed-radix digits of value, below math.prod(plan), the first bound
    # least significant: a bijection onto the pick tuples.
    picks = []
    for m in plan:
        value, pick = divmod(value, m)
        picks.append(pick)
    return tuple(picks)


def _draw_picks(plan: Sequence[int], rng: random.Random) -> tuple[int, ...]:
    return _decode_picks(plan, rng.randrange(math.prod(plan)))


def _cut_and_riffle(
    n: int, flip_odd_indexed: bool | None, picks: Sequence[int]
) -> tuple[int, ...]:
    # picks[:n] send card i to stack picks[i]; picks[n:] riffle the stacks.
    # Only the non-empty stacks are built, so a draw's cost does not grow with
    # k; an empty stack never takes a pick, so the images are the same.
    cut = sorted(Counter(s + 1 for s in picks[:n]).items())
    return _riffle_images(_stacks_for_cut(cut, flip_odd_indexed), picks[n:])


def riffle_sample(n: int, k: int, rng: random.Random) -> Permutation:
    """One draw from ``riffle_distribution(n, k)``.

    The physical cut-and-interleave process produces the inverse orientation,
    so the merged deck is inverted before returning.
    """
    images = _cut_and_riffle(n, None, _draw_picks(riffle_plan(n, k), rng))
    return Permutation(images).inverse()


def count_picks(plan: tuple[int, ...], draws: int, rng: random.Random) -> Counter[tuple[int, ...]]:
    """How often each pick tuple occurs in ``draws`` successive draws over
    ``plan``: the same ``rng.randrange(math.prod(plan))`` calls that single
    draws make one by one, each distinct integer decoded once."""
    values = Counter(map(rng.randrange, itertools.repeat(math.prod(plan), draws)))
    return Counter({_decode_picks(plan, value): count for value, count in values.items()})


# ---------------------------------------------------------------------------
# Affine type C k-shuffles
# ---------------------------------------------------------------------------

def _affine_c_outcomes(n: int, k: int) -> Iterator[SignedPermutation]:
    # One outcome per (cut, interleaving) pair, so an element may repeat.
    flip_odd = k % 2 == 0  # odd k flips even stacks, even k flips odd stacks
    for sizes in _compositions(n, k):
        stacks = _stacks_for_cut(enumerate(sizes, start=1), flip_odd)
        for word in _multiset_permutations(sizes):
            yield SignedPermutation(_merge(stacks, word))


EXACT_MAX_OUTCOMES = 2**20
"""Most (cut, interleaving) pairs, k^n, that ``affine_c_shuffle_distribution``
enumerates; each takes about 13 microseconds, so the limit is about 14 s."""


def affine_c_shuffle_distribution(n: int, k: int) -> GroupAlgebraElement:
    """Exact outcome distribution of the k-stack flip-and-riffle model.

    Cut multinomially into k stacks, flip the even-numbered stacks when k is
    odd (the odd-numbered ones when k is even), then interleave uniformly.
    Every (cut, interleaving) pair carries probability 1/k^n.  More than
    ``EXACT_MAX_OUTCOMES`` pairs are refused before any is enumerated.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    # 2^n alone passes the limit once n reaches its bit length; k^n is then
    # never computed for a huge n.
    if k > 1 and (n >= EXACT_MAX_OUTCOMES.bit_length() or k**n > EXACT_MAX_OUTCOMES):
        raise ValueError(
            f"the flip-and-riffle law at n={n}, k={k} enumerates k^n (cut, interleaving) "
            f"pairs, more than EXACT_MAX_OUTCOMES = {EXACT_MAX_OUTCOMES:,}")
    # The sum-to-1 guard also checks that k^n outcomes were enumerated.
    masses: dict[GroupElement, Fraction] = {}
    step = Fraction(1, k**n)
    for outcome in _affine_c_outcomes(n, k):
        masses[outcome] = masses.get(outcome, Fraction(0)) + step
    return GroupAlgebraElement.probability(GroupKind("C", n), masses)


def affine_c_shuffle_sample(n: int, k: int, rng: random.Random) -> SignedPermutation:
    """One draw from the flip-and-riffle model, via the supplied generator."""
    return SignedPermutation(affine_c_images(n, k, _draw_picks(riffle_plan(n, k), rng)))


def affine_c_images(n: int, k: int, picks: Sequence[int]) -> tuple[int, ...]:
    """The one-line images of the flip-and-riffle draw with these picks over
    ``riffle_plan(n, k)``, not yet validated."""
    return _cut_and_riffle(n, k % 2 == 0, picks)


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
    pick, *picks = _draw_picks((sum(weights),) + tuple(range(n, 0, -1)), rng)
    for j, weight in enumerate(weights):
        if pick < weight:
            break
        pick -= weight
    return Permutation(_riffle_images(_affine_a_second_pile(n, j), picks))


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
