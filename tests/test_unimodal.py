"""Unimodal permutations, cycle shapes, the 2^{l-1} law, and the eta map."""

from collections import Counter

import pytest

from affine_shuffles import unimodal
from affine_shuffles.perm import (
    Permutation,
    SignedPermutation,
    all_permutations,
    cycle_type,
)
from affine_shuffles.shuffles import two_shuffle_outcomes
from affine_shuffles.unimodal import (
    CycleShape,
    cycle_shape,
    enumerate_unimodal,
    eta_map,
    gannon_histogram,
    is_unimodal,
    shape_multiset,
    transitive_unimodal_count,
)


def perm(text):
    return Permutation.from_text(text)


# --- recognition and enumeration ------------------------------------------------

def test_unimodal_n3_set():
    got = {w.to_text() for w in enumerate_unimodal(3)}
    assert got == {"1,2,3", "1,3,2", "2,3,1", "3,2,1"}


def test_unimodal_n1():
    assert [w.to_text() for w in enumerate_unimodal(1)] == ["1"]


def test_312_is_not_unimodal():
    assert not is_unimodal(perm("3,1,2"))
    assert is_unimodal(perm("2,3,1"))
    assert is_unimodal(Permutation.identity(4))
    assert is_unimodal(perm("4,3,2,1"))


def test_enumeration_matches_filter():
    for n in range(1, 8):
        group = list(all_permutations(n))
        filtered = {w for w in group if is_unimodal(w)}
        assert set(enumerate_unimodal(n)) == filtered
        assert len(filtered) == 2 ** (n - 1)
        # the orbit-of-1 kernel that transitive_unimodal reads
        assert all(unimodal._is_n_cycle(w.images) == (len(w.cycles()) == 1) for w in group)


def _unimodal_by_mask(n):
    # Subset ``mask`` of {1..n-1}: its members ascend before n, the rest
    # descend after.
    out = []
    values = list(range(1, n))
    for mask in range(2 ** (n - 1)):
        rising = [v for i, v in enumerate(values) if mask >> i & 1]
        falling = [v for i, v in enumerate(values) if not mask >> i & 1]
        out.append(Permutation(tuple(rising + [n] + falling[::-1])))
    return out


def test_doubling_enumeration_is_the_mask_order_and_cached():
    for n in range(1, 13):
        got = enumerate_unimodal(n)
        assert isinstance(got, tuple)
        assert list(got) == _unimodal_by_mask(n)
        assert all(type(w) is Permutation for w in got)
        assert enumerate_unimodal(n) is got


def test_counts_up_to_14():
    for n in range(1, 15):
        assert len(set(enumerate_unimodal(n))) == 2 ** (n - 1)


# --- cycle shapes ------------------------------------------------------------------

def test_shape_of_523_is_312():
    # equality is rotation-invariant: (312) and the canonical word denote
    # the same cycle
    assert cycle_shape((5, 2, 3)) == CycleShape((3, 1, 2))


def test_shape_fixed_point_and_pair():
    assert cycle_shape((7,)) == CycleShape((1,))
    assert cycle_shape((3, 1)) == CycleShape((2, 1))


def test_shape_rejects_repeats():
    with pytest.raises(ValueError):
        cycle_shape((2, 2))


def test_shape_rotation_invariance():
    assert CycleShape((1, 2, 3)) == CycleShape((2, 3, 1)) == CycleShape((3, 1, 2))
    assert CycleShape((1, 3, 2)) != CycleShape((1, 2, 3))


# --- the 2^{l-1} law -----------------------------------------------------------------

def test_gannon_n3_classes():
    histogram = gannon_histogram(3)
    assert len(histogram) == 3
    counts = sorted(histogram.values())
    assert counts == [1, 1, 2]
    # identity class (three fixed points) has l = 1
    identity_key = shape_multiset(Permutation.identity(3))
    assert histogram[identity_key] == 1
    # {(1), (21)} class holds 132 and 321
    mixed_key = shape_multiset(perm("1,3,2"))
    assert mixed_key == shape_multiset(perm("3,2,1"))
    assert histogram[mixed_key] == 2
    # the transitive class holds only 231
    assert histogram[shape_multiset(perm("2,3,1"))] == 1


def test_gannon_law_holds_up_to_10():
    for n in range(1, 11):
        histogram = gannon_histogram(n)
        assert sum(histogram.values()) == 2 ** (n - 1)
        for key, count in histogram.items():
            assert count == 2 ** (len(key) - 1), (n, key)


# --- transitive counts ----------------------------------------------------------------

def test_transitive_frozen_values():
    assert [transitive_unimodal_count(n) for n in range(1, 7)] == [1, 1, 1, 2, 3, 5]


def test_transitive_closed_form_matches_brute_force():
    for n in range(1, 15):
        brute = sum(1 for w in enumerate_unimodal(n) if len(w.cycles()) == 1)
        assert transitive_unimodal_count(n) == brute


# --- the eta map -------------------------------------------------------------------------

def test_eta_worked_example_12_cards():
    outcome = SignedPermutation.from_text("-6,-5,7,8,-4,9,-3,10,-2,11,-1,12")
    intermediate = outcome.inverse().underlying()
    assert intermediate.images == (11, 9, 7, 5, 2, 1, 3, 4, 6, 8, 10, 12)
    image = eta_map(outcome)
    assert is_unimodal(image)
    assert image.images == (1, 3, 5, 7, 9, 10, 12, 11, 8, 6, 4, 2)


def test_eta_two_to_one_onto_unimodal():
    for n in range(1, 8):
        images = Counter(eta_map(o) for o in two_shuffle_outcomes(n))
        assert set(images) == set(enumerate_unimodal(n))
        assert all(c == 2 for c in images.values())


def test_eta_preserves_unsigned_cycle_type():
    for n in range(1, 8):
        for outcome in two_shuffle_outcomes(n):
            assert cycle_type(outcome.underlying()) == cycle_type(eta_map(outcome))


def test_eta_first_symbol_flip_same_image():
    for outcome in two_shuffle_outcomes(5):
        flipped = SignedPermutation((-outcome.images[0],) + outcome.images[1:])
        assert eta_map(outcome) == eta_map(flipped)


def test_eta_rejects_invalid_outcomes():
    with pytest.raises(ValueError):
        eta_map(SignedPermutation.from_text("1,-2,3"))
    with pytest.raises(ValueError):
        eta_map(SignedPermutation.from_text("-1,-2,3"))  # negatives out of order

