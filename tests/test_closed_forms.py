"""The four type A closed forms and the type C binomial formula."""

from fractions import Fraction

import pytest

from affine_shuffles.cellini import RootSystem, x_k_generic, x_k_type_a_lattice
from affine_shuffles.closed_forms import (
    x_k_measure_type_a,
    x_k_measure_type_c,
    x_k_type_a,
    x_k_type_c,
)
from affine_shuffles.perm import (
    Permutation,
    SignedPermutation,
    all_permutations,
    all_signed_permutations,
)


def perm(text):
    return Permutation.from_text(text)


def sperm(text):
    return SignedPermutation.from_text(text)


@pytest.mark.parametrize("route, w, expected", [
    (x_k_type_a, sperm("2,-1,3"), "Permutation"),
    (x_k_type_c, perm("2,1,3"), "SignedPermutation"),
])
def test_closed_forms_reject_the_other_family(route, w, expected):
    with pytest.raises(ValueError, match=f"needs a {expected}, got"):
        route(w, 3)


def test_type_a_frozen_values():
    # 2 and 3 are aliases of method 1, still accepted because the benchmark calls them
    for method in (1, 2, 3, 4):
        assert x_k_type_a(perm("1,2,3"), 3, method) == Fraction(2, 9)
        assert x_k_type_a(perm("1,3,2"), 2, method) == Fraction(0)
    # special branch: k - cd = 0 with maj divisible by n
    assert x_k_type_a(perm("3,2,1"), 2, 4) == Fraction(1, 4)


def test_type_a_invalid_method():
    with pytest.raises(ValueError):
        x_k_type_a(perm("1,2,3"), 2, 5)


def test_methods_agree_pairwise():
    for n in range(1, 6):
        for k in range(1, 7):
            for w in all_permutations(n):
                values = {x_k_type_a(w, k, method) for method in (1, 2, 3, 4)}
                assert len(values) == 1, (n, k, w)


@pytest.mark.parametrize("k", [600, 1200, 5000])
def test_partition_methods_reach_large_k(k):
    # the box has k - cd(w) columns; a count that recursed once per column
    # ran out of stack here
    for text in ("1,2,3,4,5,6,7,8", "2,1,3,4,5,6,7,8", "8,7,6,5,4,3,2,1", "3,1,4,8,5,2,7,6"):
        w = perm(text)
        expected = x_k_type_a(w, k, 4)
        assert x_k_type_a(w, k, 1) == expected, (text, k)


def test_methods_agree_with_lattice_and_generic():
    for n in range(2, 5):
        for k in range(1, 7):
            generic = x_k_generic(RootSystem.type_a(n), k)
            for w in all_permutations(n):
                value = x_k_type_a(w, k, 1)
                assert value == x_k_type_a_lattice(w, k)
                assert value == generic.coefficient(w)


def test_type_a_measure_sums_to_one():
    for n in range(1, 6):
        for k in range(1, 9):
            assert sum(x_k_measure_type_a(n, k).coeffs.values()) == 1


def test_type_c_frozen_values():
    assert x_k_type_c(sperm("1,2"), 3) == Fraction(1, 3)
    assert x_k_type_c(sperm("1,2"), 2) == Fraction(1, 4)
    assert x_k_type_c(sperm("-2,-1"), 2) == Fraction(1, 4)


def test_type_c_binomial_vanishes_below_diagonal():
    # descents can push the upper index below n; the coefficient is then zero
    assert x_k_type_c(sperm("-1,-2"), 3) == Fraction(0)


def test_type_c_measure_sums_to_one_both_parities():
    for n in range(1, 4):
        for k in range(1, 8):
            assert sum(x_k_measure_type_c(n, k).coeffs.values()) == 1


def test_type_c_agrees_with_generic_both_parities():
    for n in range(1, 4):
        for k in range(1, 8):
            generic = x_k_generic(RootSystem.type_c(n), k)
            for w in all_signed_permutations(n):
                assert x_k_type_c(w, k) == generic.coefficient(w)


def test_k_below_cyclic_descents_gives_zero():
    # cd = 2 for these elements, so k = 1 must give the zero coefficient
    for text in ("2,1,3", "1,3,2", "3,2,1"):
        assert x_k_type_a(perm(text), 1, 1) == 0
        assert x_k_type_a(perm(text), 1, 4) == 0
