"""Group elements, statistics, cycle types, and group-algebra arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_shuffles.perm import (
    ClassMeasure,
    CycleType,
    GroupAlgebraElement,
    GroupKind,
    Permutation,
    SignedCycleType,
    SignedPermutation,
    all_permutations,
    all_signed_permutations,
    convolve,
    cycle_type,
    descent_histograms,
    invert_element,
    type_a_stats,
    type_c_stats,
)


def perm(text):
    return Permutation.from_text(text)


def sperm(text):
    return SignedPermutation.from_text(text)


# --- construction and text form ------------------------------------------

def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        SignedPermutation((1, -1))
    with pytest.raises(ValueError):
        SignedPermutation((2, 3))


def test_text_round_trip():
    w = sperm("3,1,-2,4,5")
    assert w.to_text() == "3,1,-2,4,5"
    assert SignedPermutation.from_text(w.to_text()) == w
    v = perm("4,1,3,2,5")
    assert Permutation.from_text(v.to_text()) == v


def test_composition_convention():
    # (u * v)(i) = u(v(i))
    u, v = perm("2,1,3"), perm("1,3,2")
    assert (u * v).images == tuple(u(v(i)) for i in (1, 2, 3))


def test_signed_action_on_negatives():
    w = sperm("3,1,-2")
    assert w(-1) == -3 and w(-3) == 2
    assert (w * w.inverse()) == SignedPermutation.identity(3)


# --- type A statistics -----------------------------------------------------

def test_type_a_stats_41325():
    # 3 cyclic descents and 2 descents; maj forced by the definition
    st_ = type_a_stats(perm("4,1,3,2,5"))
    assert st_.descents == frozenset({1, 3})
    assert st_.maj == 4
    assert st_.cd == 3
    assert st_.cyclic_descents == frozenset({0, 1, 3})


def test_type_a_stats_identity():
    st_ = type_a_stats(Permutation.identity(5))
    assert st_.descents == frozenset()
    assert st_.maj == 0
    assert st_.cd == 1  # affine position only


def test_type_a_stats_321():
    st_ = type_a_stats(perm("3,2,1"))
    assert st_.descents == frozenset({1, 2})
    assert st_.maj == 3
    assert st_.cd == 2


def test_type_a_cd_bounds():
    for n in range(2, 7):
        for w in all_permutations(n):
            assert 1 <= type_a_stats(w).cd <= n


# --- type C statistics -----------------------------------------------------

def test_type_c_stats_paper_example():
    # cyclic descent at position 1 and descents at positions 1 and 3
    st_ = type_c_stats(sperm("3,1,-2,4,5"))
    assert st_.descents == frozenset({1, 3})
    assert st_.d == 2
    assert st_.cd == 3


def test_type_c_stats_identity_and_negatives():
    assert type_c_stats(SignedPermutation.identity(2)) == (frozenset(), 0, frozenset({0}), 1)
    st_ = type_c_stats(sperm("-2,-1"))
    assert st_.descents == frozenset({2})
    assert st_.d == 1
    assert st_.cd == 1


# --- cycle types ------------------------------------------------------------

def test_cycle_type_examples():
    assert cycle_type(perm("2,3,1")) == CycleType((3,))
    assert cycle_type(sperm("-1,2")) == SignedCycleType((1,), (1,))
    assert cycle_type(sperm("-2,-1")) == SignedCycleType((2,), ())


def test_cycle_type_validation():
    with pytest.raises(ValueError):
        CycleType((1, 2))
    with pytest.raises(ValueError):
        SignedCycleType((0,), ())


@settings(max_examples=50)
@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_cycle_type_is_class_function(w_images, g_images):
    w = Permutation(tuple(w_images))
    g = Permutation(tuple(g_images))
    assert cycle_type(w) == cycle_type(g * w * g.inverse())


@settings(max_examples=50)
@given(
    st.permutations(list(range(1, 5))),
    st.tuples(*[st.sampled_from((1, -1))] * 4),
    st.permutations(list(range(1, 5))),
    st.tuples(*[st.sampled_from((1, -1))] * 4),
)
def test_signed_cycle_type_is_class_function(w_images, w_signs, g_images, g_signs):
    w = SignedPermutation(tuple(s * v for s, v in zip(w_signs, w_images)))
    g = SignedPermutation(tuple(s * v for s, v in zip(g_signs, g_images)))
    assert cycle_type(w) == cycle_type(g * w * g.inverse())


def test_signed_cycle_type_sizes():
    for w in all_signed_permutations(3):
        assert cycle_type(w).size == 3


# --- histograms -------------------------------------------------------------

def test_descent_histograms_small():
    assert descent_histograms(3).A == (1, 4, 1)
    assert descent_histograms(2).N == (4, 4)
    # N_1 = 2^2 A_0
    assert descent_histograms(2).N[0] == 4 * descent_histograms(2).A[0]


def test_histogram_identity_exhaustive():
    for n in range(1, 6):
        A, N = descent_histograms(n)
        assert sum(A) == len(list(all_permutations(n)))
        assert sum(N) == len(list(all_signed_permutations(n)))
        for r in range(n):
            assert N[r] == 2**n * A[r]


def test_cd_histogram_matches_direct_count():
    n = 4
    _, N = descent_histograms(n)
    for r in range(1, n + 1):
        direct = sum(1 for w in all_signed_permutations(n) if type_c_stats(w).cd == r)
        assert N[r - 1] == direct


# --- group algebra ----------------------------------------------------------

C2_MEASURE = GroupAlgebraElement(
    GroupKind("C", 2),
    {
        sperm("1,2"): Fraction(1, 4),
        sperm("-1,2"): Fraction(1, 4),
        sperm("-2,1"): Fraction(1, 4),
        sperm("-2,-1"): Fraction(1, 4),
    },
)


def test_delta_is_convolution_unit():
    delta = GroupAlgebraElement.delta(GroupKind("C", 2), SignedPermutation.identity(2))
    assert convolve(delta, C2_MEASURE) == C2_MEASURE
    assert convolve(C2_MEASURE, delta) == C2_MEASURE


def test_invert_element_example():
    inv = invert_element(C2_MEASURE)
    expected = GroupAlgebraElement(
        GroupKind("C", 2),
        {
            sperm("1,2"): Fraction(1, 4),
            sperm("-1,2"): Fraction(1, 4),
            sperm("2,-1"): Fraction(1, 4),
            sperm("-2,-1"): Fraction(1, 4),
        },
    )
    assert inv == expected


def test_convolve_rejects_mismatched_kinds():
    a = GroupAlgebraElement.delta(GroupKind("A", 3), Permutation.identity(3))
    b = GroupAlgebraElement.delta(GroupKind("A", 4), Permutation.identity(4))
    with pytest.raises(ValueError):
        convolve(a, b)


def _sparse_element(images_list, coeffs):
    kind = GroupKind("A", 4)
    return GroupAlgebraElement(
        kind,
        {
            Permutation(tuple(images)): Fraction(num, 7)
            for images, num in zip(images_list, coeffs)
        },
    )


@settings(max_examples=30)
@given(
    st.lists(st.permutations(list(range(1, 5))), min_size=1, max_size=3, unique_by=tuple),
    st.lists(st.permutations(list(range(1, 5))), min_size=1, max_size=3, unique_by=tuple),
    st.lists(st.permutations(list(range(1, 5))), min_size=1, max_size=3, unique_by=tuple),
    st.data(),
)
def test_convolution_associative(xs, ys, zs, data):
    coeffs = lambda n: data.draw(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    )
    a = _sparse_element(xs, coeffs(len(xs)))
    b = _sparse_element(ys, coeffs(len(ys)))
    c = _sparse_element(zs, coeffs(len(zs)))
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


@settings(max_examples=30)
@given(
    st.lists(st.permutations(list(range(1, 5))), min_size=1, max_size=4, unique_by=tuple),
    st.data(),
)
def test_invert_is_involution_and_preserves_coefficients(xs, data):
    nums = data.draw(st.lists(st.integers(-5, 5), min_size=len(xs), max_size=len(xs)))
    a = _sparse_element(xs, nums)
    assert invert_element(invert_element(a)) == a
    assert sorted(a.coeffs.values()) == sorted(invert_element(a).coeffs.values())


# --- class measures ---------------------------------------------------------

def test_class_measure_validation():
    with pytest.raises(ValueError):
        ClassMeasure({CycleType((1,)): Fraction(1, 2)})
    with pytest.raises(ValueError):
        ClassMeasure({CycleType((1,)): Fraction(3, 2), CycleType((2,)): Fraction(-1, 2)})


def test_probability_validation():
    kind = GroupKind("A", 2)
    with pytest.raises(ValueError, match="sum to 1/2"):
        GroupAlgebraElement.probability(kind, {perm("1,2"): Fraction(1, 2)})
    with pytest.raises(ValueError, match="nonnegative"):
        GroupAlgebraElement.probability(
            kind, {perm("1,2"): Fraction(3, 2), perm("2,1"): Fraction(-1, 2)}
        )
    uniform = {perm("1,2"): Fraction(1, 2), perm("2,1"): Fraction(1, 2)}
    assert GroupAlgebraElement.probability(kind, uniform) == GroupAlgebraElement(kind, uniform)


def test_class_measure_from_element():
    measure = C2_MEASURE.class_measure()
    assert measure.mass(SignedCycleType((1, 1), ())) == Fraction(1, 4)
    assert measure.mass(SignedCycleType((1,), (1,))) == Fraction(1, 4)
    assert measure.mass(SignedCycleType((2,), ())) == Fraction(1, 4)
    assert measure.mass(SignedCycleType((), (2,))) == Fraction(1, 4)
