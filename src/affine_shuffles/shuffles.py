"""Physical card-shuffling models and total variation distance.

Conventions, fixed once and validated against the closed-form measures:

* the deck starts face down as 1..n read top to bottom;
* "flip over" a stack reverses its order and negates every card;
* the final deck read top to bottom is the one-line form of the outcome;
* with the package's composition convention, each model's exact outcome
  distribution equals the *inverse* of the corresponding affine shuffle
  element.

Each exact distribution is a probability element of the group algebra
(``GroupAlgebraElement.probability``), the same type as the x_k elements it
inverts.  A cut-and-riffle of n cards into k stacks is a uniform word in
{0..k-1}^n whose letter i names the stack of the merged deck's i-th card
(Bayer-Diaconis).  Both exact laws count their words' outcomes in one
``itertools.product`` enumeration, ``_word_counts``, under one size limit.
A sampler's draw has two parts:

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
stacks of ``_stacks_for_cut`` and ``_affine_a_second_pile``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .numth import binomial
from .perm import (
    ELEMENT_TYPES,
    GroupAlgebraElement,
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

EXACT_MAX_OUTCOMES = 2**20
"""Most words, k^n (2^n for the two-pile law), that an exact law enumerates.
A word takes about 3 microseconds at n <= 5, where outcomes repeat, and 9.4
at n = 20, k = 2, where each is a new element: about 10 s at the limit."""


def _merge(stacks: Mapping[int, Sequence[int]], word: Sequence[int]) -> tuple[int, ...]:
    # Letter s of the word takes the next card down stacks[s].
    tops = {s: iter(stack) for s, stack in stacks.items()}
    return tuple([next(tops[s]) for s in word])


def _word_counts(n: int, k: int, stacks_for_cut: Callable) -> dict[tuple[int, ...], int]:
    # How many words in {0..k-1}^n merge into each outcome, first reached
    # first.  A word's cut is its sorted letters; stacks_for_cut gives the
    # cut's stacks by letter, once per cut, or None to skip its words.  k^n
    # is never computed for a huge n: 2^n alone passes the limit there.
    if k > 1 and (n >= EXACT_MAX_OUTCOMES.bit_length() or k**n > EXACT_MAX_OUTCOMES):
        raise ValueError(
            f"the exact shuffle law at n={n}, k={k} enumerates k^n words, "
            f"more than EXACT_MAX_OUTCOMES = {EXACT_MAX_OUTCOMES:,}")
    stacks_of = functools.cache(stacks_for_cut)
    counts: dict[tuple[int, ...], int] = {}
    for word in itertools.product(range(k), repeat=n):
        stacks = stacks_of(tuple(sorted(word)))
        if stacks is not None:
            images = _merge(stacks, word)
            counts[images] = counts.get(images, 0) + 1
    return counts


def _exact_law(kind: GroupKind, counts: dict, words: int) -> GroupAlgebraElement:
    # The sum-to-1 guard also checks that ``words`` words were enumerated.
    element = ELEMENT_TYPES[kind.family]
    return GroupAlgebraElement.probability(
        kind, {element(images): Fraction(count, words) for images, count in counts.items()})


def _affine_c_counts(n: int, k: int) -> dict[tuple[int, ...], int]:
    flip_odd = k % 2 == 0  # odd k flips even stacks, even k flips odd stacks

    def stacks(cut: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
        sizes = Counter(cut)
        return dict(zip(sizes, _stacks_for_cut(((s + 1, j) for s, j in sizes.items()), flip_odd)))

    return _word_counts(n, k, stacks)


def affine_c_shuffle_distribution(n: int, k: int) -> GroupAlgebraElement:
    """Exact outcome distribution of the k-stack flip-and-riffle model.

    Cut multinomially into k stacks, flip the even-numbered stacks when k is
    odd (the odd-numbered ones when k is even), then interleave uniformly.
    Every word in {0..k-1}^n carries probability 1/k^n.  More than
    ``EXACT_MAX_OUTCOMES`` words are refused before any is enumerated.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return _exact_law(GroupKind("C", n), _affine_c_counts(n, k), k**n)


def affine_c_shuffle_sample(n: int, k: int, rng: random.Random) -> SignedPermutation:
    """One draw from the flip-and-riffle model, via the supplied generator."""
    return SignedPermutation(affine_c_images(n, k, _draw_picks(riffle_plan(n, k), rng)))


def affine_c_images(n: int, k: int, picks: Sequence[int]) -> tuple[int, ...]:
    """The one-line images of the flip-and-riffle draw with these picks over
    ``riffle_plan(n, k)``, not yet validated."""
    return _cut_and_riffle(n, k % 2 == 0, picks)


def two_shuffle_outcomes(n: int) -> list[SignedPermutation]:
    """The 2^n distinct outcomes of the k = 2 model, in their words' order."""
    return [SignedPermutation(images) for images in _affine_c_counts(n, 2)]


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
    So every word in {0,1}^n with an even number of ones has mass 1/2^{n-1}.
    """
    if n < 1:
        raise ValueError("n must be positive")

    def piles(cut: tuple[int, ...]) -> dict[int, list[int]] | None:
        ones = sum(cut)
        return None if ones % 2 else dict(enumerate(_affine_a_second_pile(n, ones // 2)))

    return _exact_law(GroupKind("A", n), _word_counts(n, 2, piles), 2 ** (n - 1))


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


def _tv_to_uniform(histogram: Iterable[tuple[int, Fraction]], order: int) -> Fraction:
    # 1/2 sum_r h[r] |mass(r) - 1/|G||, over the (h[r], mass(r)) pairs.
    uniform = Fraction(1, order)
    return sum((h * abs(mass - uniform) for h, mass in histogram), Fraction(0)) / 2


def tv_riffle_to_uniform(n: int, k: int) -> Fraction:
    """TV distance of the k-riffle to uniform, via the Eulerian histogram."""
    A = descent_histograms(n).A
    return _tv_to_uniform(
        ((A[r], Fraction(binomial(k + n - r - 1, n), k**n)) for r in range(n)),
        math.factorial(n),
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
    return _tv_to_uniform(
        ((N[r - 1], Fraction(binomial(k // 2 + n - r, n), k**n)) for r in range(1, n + 1)),
        2**n * math.factorial(n),
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
