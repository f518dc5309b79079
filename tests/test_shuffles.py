"""Card-shuffling models, their exact distributions, and total variation."""

import hashlib
import itertools
import math
import random
import tracemalloc
import types
from collections import Counter
from fractions import Fraction

import pytest

from affine_shuffles import shuffles
from affine_shuffles.closed_forms import x_k_measure_type_a, x_k_measure_type_c
from affine_shuffles.perm import (
    GroupKind,
    Permutation,
    SignedPermutation,
    invert_element,
)
from affine_shuffles.shuffles import (
    _affine_a_second_pile,
    affine_a_2shuffle_distribution,
    affine_a_2shuffle_sample,
    affine_c_shuffle_distribution,
    affine_c_shuffle_sample,
    riffle_distribution,
    riffle_sample,
    theorem_tv_check,
    total_variation,
    tv_affine_c_to_uniform,
    tv_riffle_to_uniform,
    two_shuffle_outcomes,
    uniform_distribution,
)


def sperm(text):
    return SignedPermutation.from_text(text)


# --- riffle ------------------------------------------------------------------

def test_riffle_one_pile_is_identity():
    d = riffle_distribution(2, 1)
    assert dict(d.coeffs) == {Permutation.identity(2): Fraction(1)}


def test_riffle_two_cards():
    d = riffle_distribution(2, 2)
    assert d.coefficient(Permutation((1, 2))) == Fraction(3, 4)
    assert d.coefficient(Permutation((2, 1))) == Fraction(1, 4)


def test_worpitzky_check_n3_k2():
    # 1*4 + 4*1 + 1*0 = 8 = 2^3; the constructor asserts this internally
    riffle_distribution(3, 2)


def test_riffle_sampler_matches_distribution():
    rng = random.Random(7)
    counts = Counter(riffle_sample(3, 2, rng) for _ in range(20000))
    exact = riffle_distribution(3, 2)
    for w, mass in exact.coeffs.items():
        assert abs(counts[w] / 20000 - float(mass)) < 0.02


# --- affine type C model -----------------------------------------------------

def test_affine_c_exact_n2_k2():
    d = affine_c_shuffle_distribution(2, 2)
    assert dict(d.coeffs) == {
        sperm("1,2"): Fraction(1, 4),
        sperm("-2,-1"): Fraction(1, 4),
        sperm("-1,2"): Fraction(1, 4),
        sperm("2,-1"): Fraction(1, 4),
    }


def test_affine_c_exact_one_card():
    assert dict(affine_c_shuffle_distribution(1, 3).coeffs) == {
        sperm("1"): Fraction(2, 3),
        sperm("-1"): Fraction(1, 3),
    }
    assert dict(affine_c_shuffle_distribution(1, 2).coeffs) == {
        sperm("1"): Fraction(1, 2),
        sperm("-1"): Fraction(1, 2),
    }


def test_affine_c_model_inverts_measure():
    for n in (1, 2, 3):
        for k in range(1, 7):
            model = affine_c_shuffle_distribution(n, k)
            expected = invert_element(x_k_measure_type_c(n, k)).coeffs
            assert dict(model.coeffs) == expected, (n, k)


def test_two_shuffle_outcomes_are_distinct():
    for n in (1, 2, 3, 4, 5):
        outcomes = two_shuffle_outcomes(n)
        assert len(outcomes) == 2**n
        assert len(set(outcomes)) == 2**n


def _law_lines(name, law):
    yield name
    yield from sorted(f"{w.to_text()}:{mass}" for w, mass in law.coeffs.items())


def test_exact_laws_are_pinned():
    # Both laws, element by element, as sorted element:mass lines: type A at
    # n <= 8 and type C at n <= 5, k <= 7, k^n <= 20,000.  The digest was
    # recorded from the (cut, interleaving) enumeration that the words replaced.
    lines = [
        line for n in range(1, 9)
        for line in _law_lines(f"A {n}", affine_a_2shuffle_distribution(n))
    ] + [
        line for n in range(1, 6) for k in range(1, 8) if k**n <= 20_000
        for line in _law_lines(f"C {n} {k}", affine_c_shuffle_distribution(n, k))
    ]
    assert len(lines) == 11548
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "c725682a34120d1d2945a71997b8186f7f9f18d008d596f4543ae9d1708482b8")


def _enumerated(*args, **kwargs):
    raise LookupError("enumerated")


@pytest.mark.parametrize("law", [affine_a_2shuffle_distribution, two_shuffle_outcomes])
def test_two_pile_laws_refuse_words_past_the_exact_limit(monkeypatch, law):
    # 2^21 words are refused before any word is built: without ``itertools``
    # the enumeration would raise something else
    monkeypatch.setattr(shuffles, "itertools", None)
    with pytest.raises(ValueError, match="n=21, k=2 .* more than EXACT_MAX_OUTCOMES"):
        law(21)


@pytest.mark.parametrize("law", [affine_a_2shuffle_distribution, two_shuffle_outcomes])
def test_two_pile_laws_at_the_exact_limit_reach_the_words(monkeypatch, law):
    monkeypatch.setattr(shuffles, "itertools", types.SimpleNamespace(product=_enumerated))
    with pytest.raises(LookupError, match="enumerated"):
        law(20)


def test_affine_c_sampler_deterministic():
    assert affine_c_shuffle_sample(4, 2, random.Random(99)) == affine_c_shuffle_sample(
        4, 2, random.Random(99)
    )
    rng1, rng2 = random.Random(5), random.Random(5)
    run1 = [affine_c_shuffle_sample(3, 3, rng1) for _ in range(10)]
    run2 = [affine_c_shuffle_sample(3, 3, rng2) for _ in range(10)]
    assert run1 == run2


def test_affine_c_sampler_close_to_exact():
    rng = random.Random(11)
    draws = 20000
    counts = Counter(affine_c_shuffle_sample(3, 2, rng) for _ in range(draws))
    exact = affine_c_shuffle_distribution(3, 2)
    for w in exact.coeffs:
        assert abs(counts[w] / draws - float(exact.coefficient(w))) < 0.02


# --- affine type A model -------------------------------------------------------

def test_affine_a_two_cards():
    d = affine_a_2shuffle_distribution(2)
    assert dict(d.coeffs) == {
        Permutation((1, 2)): Fraction(1, 2),
        Permutation((2, 1)): Fraction(1, 2),
    }


def test_affine_a_three_cards():
    d = affine_a_2shuffle_distribution(3)
    assert dict(d.coeffs) == {
        Permutation((1, 2, 3)): Fraction(1, 4),
        Permutation((2, 3, 1)): Fraction(1, 4),
        Permutation((3, 2, 1)): Fraction(1, 4),
        Permutation((3, 1, 2)): Fraction(1, 4),
    }


def test_affine_a_model_inverts_measure():
    for n in range(2, 7):
        model = affine_a_2shuffle_distribution(n)
        expected = invert_element(x_k_measure_type_a(n, 2)).coeffs
        assert dict(model.coeffs) == expected, n


def test_affine_a_sampler_close_to_exact():
    rng = random.Random(3)
    draws = 20000
    counts = Counter(affine_a_2shuffle_sample(4, rng) for _ in range(draws))
    exact = affine_a_2shuffle_distribution(4)
    for w in exact.coeffs:
        assert abs(counts[w] / draws - float(exact.coefficient(w))) < 0.02


# --- the draw kernel and the pinned random stream ------------------------------

# Each draw is one rng.randrange(math.prod(plan)), decoded into its picks as
# mixed-radix digits with the first bound least significant; a change to the
# plan, the draw or the decoding changes these.
RIFFLE_5_3_SEED_2026 = (
    "1,3,4,5,2", "2,4,5,1,3", "3,2,1,4,5", "2,3,5,1,4", "2,5,1,3,4", "1,5,2,3,4",
    "3,2,4,1,5", "5,4,1,2,3", "1,4,2,3,5", "1,2,5,3,4", "2,5,3,1,4", "1,3,5,2,4",
    "1,4,3,5,2", "1,2,5,3,4", "3,1,5,2,4", "2,3,5,1,4", "4,5,1,2,3", "1,3,4,5,2",
    "2,5,3,4,1", "2,4,5,1,3",
)
AFFINE_C_5_4_SEED_2026 = (
    "-1,3,2,4,5", "-1,2,4,-3,5", "-5,-1,2,3,4", "-2,3,-1,5,-4", "1,2,4,5,3",
    "-2,3,4,5,-1", "-4,-3,-2,-1,5", "-4,-3,5,-2,-1", "-5,2,3,-1,-4", "-5,3,-4,-2,-1",
    "-3,4,-2,5,-1", "4,5,-2,-3,-1", "2,4,-1,5,3", "-4,-3,5,1,2", "-1,2,-5,3,4",
    "-4,2,-1,5,3", "-1,-4,2,5,-3", "3,2,4,5,-1", "-5,3,-2,-4,-1", "-5,-4,1,-3,2",
)
AFFINE_A_5_SEED_2026 = (
    "2,5,3,4,1", "3,4,5,1,2", "5,2,3,1,4", "2,3,4,5,1", "4,3,5,1,2", "2,5,1,3,4",
    "5,2,3,4,1", "5,2,1,3,4", "5,2,3,4,1", "5,2,1,3,4", "4,5,3,1,2", "5,1,2,3,4",
    "2,5,3,1,4", "4,5,1,3,2", "2,3,5,1,4", "5,2,3,1,4", "2,5,3,1,4", "4,5,1,2,3",
    "5,2,3,1,4", "5,1,2,3,4",
)


@pytest.mark.parametrize("draw, expected", [
    (lambda rng: riffle_sample(5, 3, rng), RIFFLE_5_3_SEED_2026),
    (lambda rng: affine_c_shuffle_sample(5, 4, rng), AFFINE_C_5_4_SEED_2026),
    (lambda rng: affine_a_2shuffle_sample(5, rng), AFFINE_A_5_SEED_2026),
], ids=["riffle", "affine-c", "affine-a"])
def test_sampler_stream_is_pinned(draw, expected):
    rng = random.Random(2026)
    assert tuple(draw(rng).to_text() for _ in range(20)) == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_kernel_draws_are_merges_of_the_stacks(n):
    # Over every pick tuple (one value below each count of cards left), the
    # kernel returns valid signed permutations, exactly the merges the exact
    # side enumerates for the same stacks, each equally often.  The exact
    # side's merges are those of the words whose letter counts are the sizes.
    def letter_counts(word, k):
        return tuple(map(word.count, range(k)))

    picks = list(itertools.product(*(range(left) for left in range(n, 0, -1))))
    cases = [_affine_a_second_pile(n, j) for j in range(n // 2 + 1)]
    cases += [
        shuffles._stacks_for_cut(enumerate(sizes, start=1), flip)
        for k in (1, 2, 3)
        for sizes in sorted({letter_counts(w, k) for w in itertools.product(range(k), repeat=n)})
        for flip in (None, True, False)
    ]
    for stacks in cases:
        sizes = tuple(len(stack) for stack in stacks)
        merges = {
            shuffles._merge(dict(enumerate(stacks)), word)
            for word in itertools.product(range(len(stacks)), repeat=n)
            if letter_counts(word, len(stacks)) == sizes
        }
        counts = Counter(shuffles._riffle_images(stacks, p) for p in picks)
        assert set(counts) == merges
        assert len(set(counts.values())) == 1
        for images in counts:
            assert SignedPermutation(images).images == images


# --- one draw, one randrange -------------------------------------------------

READER_PLANS = [(1,), (2,), (255,), (3, 1, 4), (7, 128, 2), (129, 255, 1, 3),
                (1, 2, 3, 4, 7, 128, 129, 255), shuffles.riffle_plan(3, 2)]
WIDE_PLANS = [(256,), (2, 1000, 3), (10**9, 7, 2**40),
              pytest.param(shuffles.riffle_plan(52, 2), id="riffle_plan(52, 2)")]


def one_by_one(plan, draws, rng):
    return Counter(shuffles._draw_picks(plan, rng) for _ in range(draws))


@pytest.mark.parametrize("plan", [(1,), (2,), (5,), (3, 1, 4), (2, 3, 2, 1), (4, 4, 3, 2, 1)],
                         ids=str)
def test_decoder_is_a_bijection_onto_the_pick_tuples(plan):
    decoded = [shuffles._decode_picks(plan, value) for value in range(math.prod(plan))]
    assert sorted(decoded) == list(itertools.product(*map(range, plan)))
    # mixed-radix digits, the first bound least significant
    for value, picks in enumerate(decoded):
        assert sum(pick * math.prod(plan[:i]) for i, pick in enumerate(picks)) == value


@pytest.mark.parametrize("plan", READER_PLANS + WIDE_PLANS, ids=str)
@pytest.mark.parametrize("draws", [1, 40, 20_000], ids=lambda d: f"draws={d}")
def test_block_reader_counts_the_draws_made_one_by_one(plan, draws):
    # count_picks; the name is kept from the regex block reader it replaced,
    # so the test's record carries over
    if draws == 20_000 and math.prod(plan) > 2**64:
        draws = 2_000  # wide draws are slow to make one by one
    for seed in (0, 1, 2026):
        rng = random.Random(seed)
        counts = shuffles.count_picks(plan, draws, rng)
        single = random.Random(seed)
        assert counts == one_by_one(plan, draws, single)
        assert counts.total() == draws
        assert rng.getstate() == single.getstate()


@pytest.mark.parametrize("draw, plan", [
    (lambda rng: riffle_sample(5, 3, rng), shuffles.riffle_plan(5, 3)),
    (lambda rng: riffle_sample(52, 10**9, rng), shuffles.riffle_plan(52, 10**9)),
    (lambda rng: affine_c_shuffle_sample(5, 4, rng), shuffles.riffle_plan(5, 4)),
    (lambda rng: affine_c_shuffle_sample(52, 3, rng), shuffles.riffle_plan(52, 3)),
    (lambda rng: affine_a_2shuffle_sample(5, rng), (16, 5, 4, 3, 2, 1)),
    (lambda rng: affine_a_2shuffle_sample(52, rng), (2**51,) + tuple(range(52, 0, -1))),
], ids=["riffle-5-3", "riffle-52-1e9", "affine-c-5-4", "affine-c-52-3", "affine-a-5",
        "affine-a-52"])
def test_each_sample_is_one_randrange_over_its_plan(draw, plan):
    for seed in (0, 2026):
        rng, single = random.Random(seed), random.Random(seed)
        for _ in range(5):
            draw(rng)
            single.randrange(math.prod(plan))
            assert rng.getstate() == single.getstate()


class FixedDraw:
    """A generator whose one ``randrange`` returns ``value``."""

    def __init__(self, value):
        self.value = value

    def randrange(self, stop):
        assert 0 <= self.value < stop
        return self.value


@pytest.mark.parametrize("n, k", [(1, 1), (2, 3), (3, 2), (4, 3), (5, 2)])
def test_every_draw_pushes_forward_to_the_exact_law(n, k):
    # Each sampler over every integer below the product of its plan: the
    # outcome counts over that product are the exact law.
    cases = [
        (lambda rng: riffle_sample(n, k, rng), shuffles.riffle_plan(n, k),
         riffle_distribution(n, k)),
        (lambda rng: affine_c_shuffle_sample(n, k, rng), shuffles.riffle_plan(n, k),
         affine_c_shuffle_distribution(n, k)),
        (lambda rng: affine_a_2shuffle_sample(n, rng), (2 ** (n - 1),) + tuple(range(n, 0, -1)),
         affine_a_2shuffle_distribution(n)),
    ]
    for draw, plan, exact in cases:
        total = math.prod(plan)
        counts = Counter(draw(FixedDraw(value)) for value in range(total))
        assert {w: Fraction(c, total) for w, c in counts.items()} == exact.coeffs


@pytest.mark.parametrize("draw", [
    lambda rng: riffle_sample(3, 10**7, rng),
    lambda rng: affine_c_shuffle_sample(3, 10**7, rng),
], ids=["riffle", "affine-c"])
def test_a_draw_does_not_allocate_k_stacks(draw):
    rng = random.Random(1)
    tracemalloc.start()
    try:
        draw(rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- total variation --------------------------------------------------------------

def test_tv_identical_is_zero():
    d = affine_c_shuffle_distribution(2, 2)
    assert total_variation(d, d) == 0


def test_tv_affine_c2_vs_uniform():
    d = affine_c_shuffle_distribution(2, 2)
    u = uniform_distribution(GroupKind("C", 2))
    assert total_variation(d, u) == Fraction(1, 2)


def test_tv_point_mass_vs_uniform():
    d = riffle_distribution(2, 1)
    u = uniform_distribution(GroupKind("A", 2))
    assert total_variation(d, u) == Fraction(1, 2)


def test_tv_rejects_mismatched_groups():
    with pytest.raises(ValueError):
        total_variation(
            riffle_distribution(2, 2), affine_c_shuffle_distribution(2, 2)
        )


def test_tv_histogram_formulas_match_enumeration():
    for n in range(2, 6):
        for k in (2, 4):
            enum_c = total_variation(
                affine_c_shuffle_distribution(n, k),
                uniform_distribution(GroupKind("C", n)),
            )
            assert enum_c == tv_affine_c_to_uniform(n, k), (n, k)
            enum_r = total_variation(
                riffle_distribution(n, k // 2),
                uniform_distribution(GroupKind("A", n)),
            )
            assert enum_r == tv_riffle_to_uniform(n, k // 2), (n, k)


def test_tv_equality_theorem():
    report = theorem_tv_check(2, 2)
    assert report.passed
    assert tv_affine_c_to_uniform(2, 2) == Fraction(1, 2)
    assert theorem_tv_check(3, 4).passed
    assert theorem_tv_check(5, 8).passed


def test_tv_check_requires_even_k():
    with pytest.raises(ValueError):
        theorem_tv_check(3, 3)
