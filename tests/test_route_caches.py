"""Per-class evaluation of the x_k routes, the caches behind it, and the
independence of the routes from the class index.

The whole-group routes read the class index ``perm.descent_classes``, which
is cached, and the lattice route caches its count per key.  The index keys
its elements by ``perm._cdes_keys``, the closed forms read
``perm.cyclic_descents``, and neither calls the other.  So these tests start
from cold caches (the ``cold_caches`` fixture): the class-invariance check
then compares freshly computed values, and a kernel or an index key
corrupted after the clear cannot hide behind values cached before it.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from affine_shuffles import cellini, perm
from affine_shuffles.cellini import (
    RootSystem,
    alcove_points,
    wall_set,
    x_k_generic,
    x_k_type_a_lattice,
)
from affine_shuffles.closed_forms import x_k_type_a, x_k_type_c
from affine_shuffles.harness import verify_dmp, verify_four_formulas


def oracle(rs, k):
    """w -> (1/k^r) * sum of a_{k,I} over the I that avoid Cdes(w)."""
    counts = Counter(wall_set(rs, k, y) for y in alcove_points(rs, k))  # I -> a_{k,I}
    denom = k**rs.rank
    return lambda w: Fraction(
        sum(c for I, c in counts.items() if not I & perm.cyclic_descents(w)), denom
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_type_a_routes_match_wall_set_oracle(cold_caches, k):
    rs = RootSystem.type_a(5)
    expected = oracle(rs, k)
    generic = x_k_generic(rs, k)
    for w in rs.kind().elements():
        want = expected(w)
        got = [x_k_type_a(w, k, method) for method in (1, 4)]
        got += [x_k_type_a_lattice(w, k), generic.coefficient(w)]
        assert got == [want] * 4, (w, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_type_c_routes_match_wall_set_oracle(cold_caches, k):
    rs = RootSystem.type_c(3)
    expected = oracle(rs, k)
    generic = x_k_generic(rs, k)
    for w in rs.kind().elements():
        want = expected(w)
        assert [x_k_type_c(w, k), generic.coefficient(w)] == [want, want], (w, k)


def _forbid(monkeypatch, function):
    # Every binding of ``function`` in the package raises when called, so a
    # route that reaches it by any import fails.
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{function.__name__} was called")

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("affine_shuffles."):
            for name, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, name, forbidden)


SMALL_GROUPS = [RootSystem.type_a(5), RootSystem.type_c(3)]


@pytest.mark.parametrize("rs", SMALL_GROUPS, ids=lambda rs: "{}{}".format(*rs.kind()))
@pytest.mark.parametrize("k", [3, 4])
def test_index_and_alcove_routes_never_call_cyclic_descents(cold_caches, monkeypatch, rs, k):
    expected = oracle(rs, k)
    want = {w: expected(w) for w in rs.kind().elements()}
    _forbid(monkeypatch, perm.cyclic_descents)
    assert sum(c.size for c in perm.descent_classes(*rs.kind())) == len(want)
    generic = x_k_generic(rs, k)
    assert {w: generic.coefficient(w) for w in want} == want
    if rs.family == "A":
        assert {w: x_k_type_a_lattice(w, k) for w in want} == want


@pytest.mark.parametrize("rs", SMALL_GROUPS, ids=lambda rs: "{}{}".format(*rs.kind()))
@pytest.mark.parametrize("k", [3, 4])
def test_closed_forms_never_read_the_class_index(cold_caches, monkeypatch, rs, k):
    expected = oracle(rs, k)
    want = {w: expected(w) for w in rs.kind().elements()}
    _forbid(monkeypatch, perm.descent_classes)
    if rs.family == "A":
        for method in (1, 4):
            assert {w: x_k_type_a(w, k, method) for w in want} == want, method
    else:
        assert {w: x_k_type_c(w, k) for w in want} == want


def test_corrupt_lattice_count_fails_four_formulas(cold_caches, monkeypatch):
    sound = cellini._alcove_wall_sets
    # The lattice route loses one alcove point; the closed forms do not read it.
    monkeypatch.setattr(cellini, "_alcove_wall_sets", lambda rs, k: sound(rs, k)[1:])
    report = verify_four_formulas(4, 3)
    assert report.status == "fail"
    assert report.witness == {
        "element": "1,2,3,4", "k": 1,
        "values (methods 1, 4, lattice)": [Fraction(1)] * 2 + [Fraction(0)],
    }


def _misplace(monkeypatch, moves):
    # The class index files each S_n element under the key ``perm._cdes_keys``
    # gives it; the closed forms read ``cyclic_descents``, so they still see
    # the true Cdes.  A type A key has a byte per descent position 1..n-1, then [0 in Cdes].
    sound = perm._cdes_keys

    def misplaced(family, n, flat):
        keys = bytearray(sound(family, n, flat))
        for images, cdes in moves.items():
            start = next(s for s in range(0, len(flat), n) if flat[s:s + n] == bytes(images))
            keys[start:start + n] = bytes(i in cdes for i in [*range(1, n), 0])
        return bytes(keys)

    monkeypatch.setattr(perm, "_cdes_keys", misplaced)


def test_misplaced_index_element_breaks_the_measure(cold_caches, monkeypatch):
    # 1,3,4,2 (Cdes {0, 3}, x_3 = 1/27) filed under {0} (x_3 = 1/9): the
    # element's mass changes alone, so the total is no longer 1.
    _misplace(monkeypatch, {(1, 3, 4, 2): frozenset({0})})
    report = verify_dmp("A", 4, 3)
    assert report.status == "fail"
    assert report.witness["route"] == "x_k_generic"
    assert "sum to 29/27" in report.witness["issue"]


def test_swapped_index_elements_fail_dmp_with_class_witness(cold_caches, monkeypatch):
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


def test_every_lru_cache_is_bounded(lru_caches):
    unbounded = [name for name, cache in lru_caches.items()
                 if cache.cache_parameters()["maxsize"] is None]
    assert unbounded == []
    # fq memoises through these alone, so cold_caches reaches its fields and sieve
    assert {"affine_shuffles.fq.make_field", "affine_shuffles.fq.irreducibles",
            "affine_shuffles.fq._palindromic_types"} <= set(lru_caches)
