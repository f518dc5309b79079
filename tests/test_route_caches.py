"""Per-class evaluation of the x_k routes.

Every route computes a coefficient once per cyclic-descent class and caches
it, so these tests start from cold caches: the class-invariance check then
compares freshly computed values, and a kernel corrupted after the clear
cannot hide behind values cached before it.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from affine_shuffles import cellini, closed_forms, numth
from affine_shuffles.cellini import (
    RootSystem,
    a_k_I,
    cyclic_descent_roots,
    x_k_generic,
    x_k_type_a_lattice,
)
from affine_shuffles.closed_forms import x_k_type_a, x_k_type_c
from affine_shuffles.harness import verify_four_formulas

ROUTE_CACHES = (
    closed_forms._type_a_coefficient,
    closed_forms._type_c_coefficient,
    closed_forms.x_k_measure_type_a,
    closed_forms.x_k_measure_type_c,
    cellini._lattice_coefficient,
    cellini.x_k_generic,
)


@pytest.fixture
def cold_route_caches():
    # Cleared afterwards too, so values computed under a patch do not leak.
    for cache in ROUTE_CACHES:
        cache.cache_clear()
    yield
    for cache in ROUTE_CACHES:
        cache.cache_clear()


def oracle(rs, k):
    """w -> (1/k^r) * sum of a_{k,I} over the I that avoid Cdes(w)."""
    counts = {
        frozenset(I): a_k_I(rs, k, I)
        for size in range(rs.rank + 2)
        for I in combinations(range(rs.rank + 1), size)
    }
    denom = k**rs.rank
    return lambda w: Fraction(
        sum(c for I, c in counts.items() if not I & cyclic_descent_roots(rs, w)), denom
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_type_a_routes_match_wall_set_oracle(cold_route_caches, k):
    rs = RootSystem.type_a(5)
    expected = oracle(rs, k)
    generic = x_k_generic(rs, k)
    for w in rs.group_elements():
        want = expected(w)
        got = [x_k_type_a(w, k, method) for method in (1, 2, 4)]
        got += [x_k_type_a_lattice(w, k), generic.coefficient(w)]
        assert got == [want] * 5, (w, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_type_c_routes_match_wall_set_oracle(cold_route_caches, k):
    rs = RootSystem.type_c(3)
    expected = oracle(rs, k)
    generic = x_k_generic(rs, k)
    for w in rs.group_elements():
        want = expected(w)
        assert [x_k_type_c(w, k), generic.coefficient(w)] == [want, want], (w, k)


def test_corrupt_partition_count_fails_four_formulas(cold_route_caches, monkeypatch):
    sound = numth.bounded_partition_count

    # Wrong only in method 1's box at n = 4 with k - cd(w) = 1.
    def corrupt(max_parts, max_part, modulus, residue):
        bump = max_parts == 3 and max_part == 1
        return sound(max_parts, max_part, modulus, residue) + bump

    monkeypatch.setattr(closed_forms, "bounded_partition_count", corrupt)
    report = verify_four_formulas(4, 3)
    assert report.status == "fail"
    assert report.witness == {
        "element": "1,2,3,4", "k": 2,
        "values (methods 1, 2, 4, lattice)": [Fraction(1, 4)] + [Fraction(1, 8)] * 3,
    }


def test_corrupt_lattice_count_fails_four_formulas(cold_route_caches, monkeypatch):
    sound = cellini._alcove_wall_sets
    # The lattice route loses one alcove point; the closed forms do not read it.
    monkeypatch.setattr(cellini, "_alcove_wall_sets", lambda rs, k: sound(rs, k)[1:])
    report = verify_four_formulas(4, 3)
    assert report.status == "fail"
    assert report.witness == {
        "element": "1,2,3,4", "k": 1,
        "values (methods 1, 2, 4, lattice)": [Fraction(1)] * 3 + [Fraction(0)],
    }
