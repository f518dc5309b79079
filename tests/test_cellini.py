"""Alcove lattice points, wall-set counts, and the generic shuffle element."""

from fractions import Fraction

import pytest

from affine_shuffles import cellini
from affine_shuffles.cellini import (
    RootSystem,
    alcove_points,
    verify_cellini_properties,
    wall_set,
    x_k_generic,
    x_k_type_a_lattice,
)
from affine_shuffles.closed_forms import x_k_type_c
from affine_shuffles.perm import (
    GroupAlgebraElement,
    Permutation,
    SignedPermutation,
    all_permutations,
    all_signed_permutations,
    cyclic_descents,
)


def perm(text):
    return Permutation.from_text(text)


# --- root data ----------------------------------------------------------------

def test_root_system_type_a_data():
    rs = RootSystem.type_a(3)
    assert rs.rank == 2 and rs.ambient_dim == 3
    assert rs.simple_roots == ((1, -1, 0), (0, 1, -1))
    assert rs.alpha_zero == (-1, 0, 1)


def test_root_system_type_c_data():
    rs = RootSystem.type_c(2)
    assert rs.rank == 2 and rs.ambient_dim == 2
    assert rs.simple_roots == ((1, -1), (0, 2))
    assert rs.alpha_zero == (-2, 0)


# --- alcove points --------------------------------------------------------------

def test_alcove_points_a2_k3():
    pts = set(alcove_points(RootSystem.type_a(3), 3))
    assert pts == {(0, 0, 0), (1, 0, -1), (1, 1, -2), (2, -1, -1)}


def test_alcove_points_a1_k2():
    assert set(alcove_points(RootSystem.type_a(2), 2)) == {(0, 0), (1, -1)}


def test_alcove_points_c2_k2():
    assert set(alcove_points(RootSystem.type_c(2), 2)) == {(0, 0), (1, 0), (1, 1)}


def test_alcove_points_zero_sum():
    for k in (1, 2, 3, 4):
        for y in alcove_points(RootSystem.type_a(4), k):
            assert sum(y) == 0
            assert all(y[i] >= y[i + 1] for i in range(3))
            assert y[0] - y[-1] <= k


# --- wall sets and a_{k,I} -------------------------------------------------------

def a_k_I(rs, k, I):
    """Number of dilated-alcove lattice points whose wall set is exactly I."""
    wanted = frozenset(I)
    if not wanted <= set(range(rs.rank + 1)):
        raise ValueError(f"I must be a subset of 0..{rs.rank}")
    return sum(1 for y in alcove_points(rs, k) if wall_set(rs, k, y) == wanted)


def test_a_k_I_c1_examples():
    rs = RootSystem.type_c(1)
    assert a_k_I(rs, 2, {1}) == 1  # the point y = 0
    assert a_k_I(rs, 2, {0}) == 1  # the point y = 1
    assert a_k_I(rs, 2, set()) == 0  # would need 0 < 2y < 2


def test_a_k_I_rejects_bad_indices():
    with pytest.raises(ValueError):
        a_k_I(RootSystem.type_c(1), 2, {5})


def test_wall_sets_partition_alcove():
    # summing a_{k,I} over all wall patterns recovers the point count
    import itertools

    for rs in (RootSystem.type_a(3), RootSystem.type_c(2), RootSystem.type_c(3)):
        for k in range(1, 7):
            pts = alcove_points(rs, k)
            total = 0
            for size in range(rs.rank + 2):
                for I in itertools.combinations(range(rs.rank + 1), size):
                    total += a_k_I(rs, k, I)
            assert total == len(pts)
            for y in pts:
                assert wall_set(rs, k, y) <= set(range(rs.rank + 1))


# --- the generic element ----------------------------------------------------------

def test_x_k_generic_s3_frozen():
    x2 = x_k_generic(RootSystem.type_a(3), 2)
    assert {w.to_text(): c for w, c in x2.coeffs.items()} == {
        "1,2,3": Fraction(1, 4),
        "2,3,1": Fraction(1, 4),
        "3,1,2": Fraction(1, 4),
        "3,2,1": Fraction(1, 4),
    }
    x3 = x_k_generic(RootSystem.type_a(3), 3)
    assert {w.to_text(): c for w, c in x3.coeffs.items()} == {
        "1,2,3": Fraction(2, 9),
        "2,3,1": Fraction(2, 9),
        "3,1,2": Fraction(2, 9),
        "1,3,2": Fraction(1, 9),
        "2,1,3": Fraction(1, 9),
        "3,2,1": Fraction(1, 9),
    }


def test_x_k_generic_c2_frozen():
    x2 = x_k_generic(RootSystem.type_c(2), 2)
    assert {w.to_text(): c for w, c in x2.coeffs.items()} == {
        "1,2": Fraction(1, 4),
        "-1,2": Fraction(1, 4),
        "-2,1": Fraction(1, 4),
        "-2,-1": Fraction(1, 4),
    }


def test_x_k_generic_probability():
    for n in range(2, 6):
        for k in range(1, 9):
            element = x_k_generic(RootSystem.type_a(n), k)
            GroupAlgebraElement.probability(element.kind, element.coeffs)
    for n in range(1, 4):
        for k in range(1, 9):
            element = x_k_generic(RootSystem.type_c(n), k)
            GroupAlgebraElement.probability(element.kind, element.coeffs)


def test_x_1_is_point_mass_at_identity():
    for n in (2, 3, 4):
        element = x_k_generic(RootSystem.type_a(n), 1)
        assert element.coeffs == {Permutation.identity(n): Fraction(1)}
    for n in (1, 2, 3):
        element = x_k_generic(RootSystem.type_c(n), 1)
        assert element.coeffs == {SignedPermutation.identity(n): Fraction(1)}


def test_rank_zero_group():
    element = x_k_generic(RootSystem.type_a(1), 5)
    assert element.coeffs == {Permutation.identity(1): Fraction(1)}


# --- the per-element alcove count -------------------------------------------------

def test_lattice_examples():
    assert x_k_type_a_lattice(perm("1,2,3"), 3) == Fraction(2, 9)
    assert x_k_type_a_lattice(perm("2,1,3"), 2) == Fraction(0)
    assert x_k_type_a_lattice(perm("3,2,1"), 2) == Fraction(1, 4)


def test_lattice_key_decodes_to_the_cyclic_descents(monkeypatch):
    keys = []
    monkeypatch.setattr(
        cellini, "_lattice_coefficient", lambda n, k, key: keys.append(key) or Fraction(0)
    )
    for n in range(1, 8):
        for w in all_permutations(n):
            x_k_type_a_lattice(w, 2)
            assert len(keys[-1]) == n
            assert cellini._lattice_cdes(keys[-1]) == cyclic_descents(w), w
    assert keys[0] == b"\0" and cellini._lattice_cdes(keys[0]) == frozenset()


def test_lattice_rejects_k_below_one_with_a_warm_cache():
    cellini._lattice_coefficient.cache_clear()
    w = perm("2,3,1")
    with pytest.raises(ValueError, match="k must be positive"):
        x_k_type_a_lattice(w, 0)
    x_k_type_a_lattice(w, 1)
    x_k_type_a_lattice(w, 3)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be positive"):
            x_k_type_a_lattice(w, k)


def test_lattice_rejects_a_signed_permutation():
    with pytest.raises(ValueError, match="needs a Permutation"):
        x_k_type_a_lattice(SignedPermutation.from_text("2,-1,3"), 3)


def test_lattice_agrees_with_generic():
    for n in range(1, 6):
        for k in range(1, 7):
            generic = x_k_generic(RootSystem.type_a(n), k)
            for w in all_permutations(n):
                assert x_k_type_a_lattice(w, k) == generic.coefficient(w), (n, k, w)


def test_generic_agrees_with_type_c_closed_form():
    for n in range(1, 4):
        for k in range(1, 8):
            generic = x_k_generic(RootSystem.type_c(n), k)
            for w in all_signed_permutations(n):
                assert x_k_type_c(w, k) == generic.coefficient(w), (n, k, w)


# --- the bundled properties check ----------------------------------------------------

def test_verify_properties_a2():
    report = verify_cellini_properties(RootSystem.type_a(3), 3, 3)
    assert report.passed
    assert report.notes == "sum_I a_kI|U_I| = 9 = k^r"


def test_verify_properties_convolution_s3():
    report = verify_cellini_properties(RootSystem.type_a(3), 2, 2)
    assert report.passed


def test_verify_properties_c1():
    # sum_I a_{2,I} |U_I| = 2 = 1*1 + 1*1
    report = verify_cellini_properties(RootSystem.type_c(1), 2, 2)
    assert report.passed
    assert "= 2 = k^r" in report.notes


def test_verify_properties_c2_mixed():
    assert verify_cellini_properties(RootSystem.type_c(2), 2, 3).passed
    assert verify_cellini_properties(RootSystem.type_c(2), 3, 2).passed


def test_convolution_agrees_elementwise():
    from affine_shuffles.perm import convolve

    rs = RootSystem.type_a(4)
    assert convolve(x_k_generic(rs, 2), x_k_generic(rs, 3)) == x_k_generic(rs, 6)
