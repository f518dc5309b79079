"""Card-shuffling models, their exact distributions, and total variation."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from affine_shuffles.closed_forms import x_k_measure_type_a, x_k_measure_type_c
from affine_shuffles.perm import (
    GroupKind,
    Permutation,
    SignedPermutation,
    invert_element,
)
from affine_shuffles.shuffles import (
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
    assert affine_c_shuffle_sample(4, 2, 99) == affine_c_shuffle_sample(4, 2, 99)
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
