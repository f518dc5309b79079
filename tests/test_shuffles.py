"""Card-shuffling models, their exact distributions, and total variation."""

import itertools
import random
import re
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

# Draws recorded before the samplers shared one kernel: every draw makes the
# same rng.randrange calls, with the same arguments, in the same order, so a
# change to the stream changes these.
RIFFLE_5_3_SEED_2026 = (
    "1,5,2,3,4", "1,2,4,3,5", "5,1,3,2,4", "2,5,1,3,4", "3,5,1,2,4", "3,2,4,5,1",
    "2,4,5,1,3", "3,4,1,2,5", "4,5,2,1,3", "3,1,2,4,5", "3,4,5,1,2", "2,3,5,1,4",
    "3,5,1,2,4", "1,2,4,5,3", "2,4,5,1,3", "2,3,1,4,5", "2,5,1,3,4", "3,4,1,2,5",
    "1,4,5,2,3", "4,1,3,2,5",
)
AFFINE_C_5_4_SEED_2026 = (
    "5,-4,3,-2,-1", "-4,-3,-5,-2,-1", "-4,1,5,-3,-2", "1,-4,-3,5,-2", "3,4,-2,5,-1",
    "5,-2,3,4,-1", "4,2,5,3,-1", "3,1,-2,4,5", "4,5,-3,1,-2", "4,-3,-2,5,-1",
    "-4,2,-3,-1,5", "-2,-1,5,3,4", "5,2,3,-1,-4", "5,-4,2,-1,3", "-3,4,5,-2,-1",
    "-3,-1,4,5,-2", "4,1,5,2,-3", "4,-3,-2,-1,5", "1,5,2,3,4", "-4,5,1,-3,2",
)
AFFINE_A_5_SEED_2026 = (
    "2,3,4,5,1", "4,3,5,1,2", "2,5,3,1,4", "5,2,3,1,4", "2,3,5,1,4", "4,5,3,1,2",
    "4,3,5,1,2", "4,5,1,2,3", "4,3,5,1,2", "5,2,1,3,4", "5,2,3,1,4", "5,1,2,3,4",
    "4,5,1,2,3", "2,5,1,3,4", "2,5,3,1,4", "2,5,3,4,1", "5,2,3,1,4", "5,2,3,4,1",
    "5,2,3,4,1", "5,2,3,4,1",
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
    # side enumerates for the same stacks, each equally often.
    picks = list(itertools.product(*(range(left) for left in range(n, 0, -1))))
    cases = [_affine_a_second_pile(n, j) for j in range(n // 2 + 1)]
    cases += [
        shuffles._stacks_for_cut(sizes, flip)
        for k in (1, 2, 3) for sizes in shuffles._compositions(n, k)
        for flip in (None, True, False)
    ]
    for stacks in cases:
        sizes = tuple(len(stack) for stack in stacks)
        merges = {
            shuffles._merge(stacks, word) for word in shuffles._multiset_permutations(sizes)
        }
        counts = Counter(shuffles._riffle_images(stacks, p) for p in picks)
        assert set(counts) == merges
        assert len(set(counts.values())) == 1
        for images in counts:
            assert SignedPermutation(images).images == images


# --- the block reader ------------------------------------------------------------

READER_PLANS = [(1,), (2,), (255,), (3, 1, 4), (7, 128, 2), (129, 255, 1, 3),
                (1, 2, 3, 4, 7, 128, 129, 255), shuffles.riffle_plan(3, 2)]


def one_by_one(plan, draws, rng):
    return Counter(tuple(rng.randrange(m) for m in plan) for _ in range(draws))


@pytest.mark.parametrize("plan", READER_PLANS, ids=str)
@pytest.mark.parametrize("draws", [1, 40, 20_000], ids=lambda d: f"draws={d}")
def test_block_reader_counts_the_draws_made_one_by_one(plan, draws):
    # 20,000 draws of the widest plan read several default blocks
    for seed in (0, 1, 2026):
        counts = shuffles.count_picks(plan, draws, random.Random(seed))
        assert counts == one_by_one(plan, draws, random.Random(seed))
        assert counts.total() == draws


@pytest.mark.parametrize("words", [1, 3, 5])
@pytest.mark.parametrize("plan", READER_PLANS, ids=str)
def test_block_reader_carries_draws_across_blocks(monkeypatch, plan, words):
    # blocks of a few words: most draws straddle a refill
    monkeypatch.setattr(shuffles, "_BLOCK_WORDS", words)
    for seed in (0, 7):
        counts = shuffles.count_picks(plan, 300, random.Random(seed))
        assert counts == one_by_one(plan, 300, random.Random(seed))


def test_generator_reads_as_the_block_reader_assumes():
    # count_picks assumes CPython's Mersenne Twister: getrandbits(32 * c) holds
    # the next c 32-bit words, least significant first, and randrange(m) takes
    # the top m.bit_length() bits of one word, drawing again while they are >= m.
    assumption = "random.Random no longer reads words as shuffles.count_picks assumes"
    blocks, words = random.Random(5), random.Random(5)
    for c in (1, 2, 7, 64):
        block = blocks.getrandbits(32 * c)
        assert block == sum(words.getrandbits(32) << (32 * i) for i in range(c)), assumption
    calls, bits = random.Random(11), random.Random(11)
    for m in (1, 2, 3, 4, 7, 128, 129, 255) * 50:
        value = bits.getrandbits(32) >> (32 - m.bit_length())
        while value >= m:
            value = bits.getrandbits(32) >> (32 - m.bit_length())
        assert calls.randrange(m) == value, assumption


def test_block_reader_refuses_a_scan_that_skips_input(monkeypatch):
    # a scanner that accepts only top bit 0 and rejects nothing skips each 1
    scanner = (re.compile(b"(\\x00)"), bytes(v >> 7 for v in range(256)), (0,))
    monkeypatch.setattr(shuffles, "_plan_scanner", lambda plan: scanner)
    with pytest.raises(RuntimeError, match="block reader lost its place"):
        shuffles.count_picks((1,), 100, random.Random(3))


@pytest.mark.parametrize("plan, bound", [((0,), 0), ((2, 256), 256), ((3, 1000, 1), 1000)],
                         ids=str)
def test_block_reader_refuses_bounds_past_one_byte(plan, bound):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"randrange bound {bound} is outside 1..255"):
        shuffles.count_picks(plan, 10, rng)
    assert rng.getstate() == state


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
