"""Per-class evaluation of the x_k routes, and the caches behind it.

Every route computes a coefficient once per cyclic-descent class and caches
it, and the whole-group routes read the class index ``perm.descent_classes``,
which is cached too.  The index keys its elements by ``perm._cdes_keys``, not
by the descent statistics the routes read.  So these tests start from cold
caches: the class-invariance check then compares freshly computed values,
and a kernel or an index key corrupted after the clear cannot hide behind
values cached before it.  A monkeypatch of anything these caches read must
clear them.
"""

import importlib
import pkgutil
from fractions import Fraction
from itertools import combinations

import pytest

import affine_shuffles
from affine_shuffles import cellini, closed_forms, perm
from affine_shuffles.cellini import (
    RootSystem,
    a_k_I,
    x_k_generic,
    x_k_type_a_lattice,
)
from affine_shuffles.closed_forms import x_k_type_a, x_k_type_c
from affine_shuffles.harness import verify_dmp, verify_four_formulas

ROUTE_CACHES = (
    perm.descent_classes,
    closed_forms._type_a_coefficient,
    closed_forms._type_c_coefficient,
    closed_forms.x_k_measure_type_c,
    cellini._lattice_coefficient,
    cellini.x_k_generic,
)


@pytest.fixture
def cold_route_caches():
    # Cleared afterwards too, so values computed under a patched kernel or
    # ``perm._cdes_keys`` do not leak.
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
    stats = perm.type_a_stats if rs.family == "A" else perm.type_c_stats
    return lambda w: Fraction(
        sum(c for I, c in counts.items() if not I & stats(w).cyclic_descents), denom
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_type_a_routes_match_wall_set_oracle(cold_route_caches, k):
    rs = RootSystem.type_a(5)
    expected = oracle(rs, k)
    generic = x_k_generic(rs, k)
    for w in rs.kind().elements():
        want = expected(w)
        got = [x_k_type_a(w, k, method) for method in (1, 2, 4)]
        got += [x_k_type_a_lattice(w, k), generic.coefficient(w)]
        assert got == [want] * 5, (w, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_type_c_routes_match_wall_set_oracle(cold_route_caches, k):
    rs = RootSystem.type_c(3)
    expected = oracle(rs, k)
    generic = x_k_generic(rs, k)
    for w in rs.kind().elements():
        want = expected(w)
        assert [x_k_type_c(w, k), generic.coefficient(w)] == [want, want], (w, k)


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


def _misplace(monkeypatch, moves):
    # The class index files each S_n element under the key ``perm._cdes_keys``
    # gives it; the routes read ``type_a_stats``, so they still see the true
    # Cdes.  A type A key has a byte per descent position 1..n-1, then [0 in Cdes].
    sound = perm._cdes_keys

    def misplaced(family, n, flat):
        keys = bytearray(sound(family, n, flat))
        for images, cdes in moves.items():
            start = next(s for s in range(0, len(flat), n) if flat[s:s + n] == bytes(images))
            keys[start:start + n] = bytes(i in cdes for i in [*range(1, n), 0])
        return bytes(keys)

    monkeypatch.setattr(perm, "_cdes_keys", misplaced)


def test_misplaced_index_element_breaks_the_measure(cold_route_caches, monkeypatch):
    # 1,3,4,2 (Cdes {0, 3}, x_3 = 1/27) filed under {0} (x_3 = 1/9): the
    # element's mass changes alone, so the total is no longer 1.
    _misplace(monkeypatch, {(1, 3, 4, 2): frozenset({0})})
    report = verify_dmp("A", 4, 3)
    assert report.status == "fail"
    assert report.witness["route"] == "x_k_generic"
    assert "sum to 29/27" in report.witness["issue"]


def test_swapped_index_elements_fail_dmp_with_class_witness(cold_route_caches, monkeypatch):
    # 1,3,4,2 (a 3-cycle, x_4 = 1/32) and 2,4,1,3 (a 4-cycle, x_4 = 3/64)
    # trade classes.  Neither is the first of its class, so every route
    # still agrees on every class and the total stays 1; only the
    # polynomial side, which shares nothing with the index, sees the error.
    _misplace(monkeypatch, {(1, 3, 4, 2): frozenset({0, 2}), (2, 4, 1, 3): frozenset({0, 3})})
    report = verify_dmp("A", 4, 4)
    assert report.status == "fail"
    assert report.witness == {
        "class": "CycleType(3, 1)",
        "polynomial_side": Fraction(20, 64),
        "shuffle_side": Fraction(21, 64),
    }
    assert verify_dmp("A", 4, 3).status == "pass"  # no swapped pair differs at k = 3


def test_every_lru_cache_is_bounded():
    unbounded = []
    for info in pkgutil.iter_modules(affine_shuffles.__path__):
        module = importlib.import_module(f"affine_shuffles.{info.name}")
        owners = [module] + [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for owner in owners:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_parameters") and obj.cache_parameters()["maxsize"] is None:
                    unbounded.append(f"{module.__name__}.{name}")
    assert unbounded == []
