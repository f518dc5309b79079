"""Group elements, statistics, cycle types, and group-algebra arithmetic."""

import itertools
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_shuffles import perm as perm_module
from affine_shuffles.perm import (
    ClassMeasure,
    CycleType,
    GroupAlgebraElement,
    GroupElement,
    GroupKind,
    Permutation,
    SignedCycleType,
    SignedPermutation,
    all_permutations,
    all_signed_permutations,
    convolve,
    cycle_type,
    cyclic_descents,
    descent_classes,
    descent_histograms,
    invert_element,
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
    with pytest.raises(TypeError):
        GroupElement((1, 1))  # only the validating element types are built


def test_empty_elements_rejected():
    # an element on 0 symbols would print as "", which parses to nothing
    for cls in (Permutation, SignedPermutation):
        with pytest.raises(ValueError, match="at least one symbol"):
            cls(())
        with pytest.raises(ValueError):
            cls.from_text("")


def test_elements_carry_no_instance_dict():
    assert not hasattr(perm("2,1"), "__dict__")
    assert not hasattr(sperm("-2,1"), "__dict__")


def test_text_round_trip():
    w = sperm("3,1,-2,4,5")
    assert w.to_text() == "3,1,-2,4,5"
    assert SignedPermutation.from_text(w.to_text()) == w
    v = perm("4,1,3,2,5")
    assert Permutation.from_text(v.to_text()) == v


@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_permutation_text_round_trip_property(images):
    w = Permutation(tuple(images))
    assert Permutation.from_text(w.to_text()) == w


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.permutations(range(1, n + 1)),
            st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
        )
    )
)
def test_signed_permutation_text_round_trip_property(case):
    images, signs = case
    w = SignedPermutation(tuple(s * v for s, v in zip(signs, images)))
    assert SignedPermutation.from_text(w.to_text()) == w


def test_composition_convention():
    # (u * v)(i) = u(v(i))
    u, v = perm("2,1,3"), perm("1,3,2")
    assert (u * v).images == tuple(u(v(i)) for i in (1, 2, 3))


def _element_pairs(n):
    signed = st.tuples(st.permutations(range(1, n + 1)),
                       st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return st.one_of(
        st.tuples(st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1)))
        .map(lambda pair: tuple(Permutation(tuple(p)) for p in pair)),
        st.tuples(signed, signed).map(lambda pair: tuple(
            SignedPermutation(tuple(s * v for s, v in zip(signs, images)))
            for images, signs in pair)),
    )


@given(st.integers(1, 7).flatmap(_element_pairs))
def test_elements_share_one_body(pair):
    u, v = pair
    cls, n = type(u), u.n
    assert all((u * v)(i) == u(v(i)) for i in range(-n, n + 1) if i)
    assert u * u.inverse() == u.inverse() * u == cls.identity(n)
    assert cls.from_text(u.to_text()) == u
    assert repr(u) == f"{cls.__name__}({u.to_text()})"
    if all(x > 0 for x in u.images):
        other = SignedPermutation if cls is Permutation else Permutation
        assert u != other(u.images) and other(u.images) != u


@pytest.mark.parametrize("u, v", [
    (perm("2,1"), sperm("-1,2")),  # the composite u(v(i)) is the signed -2,1
    (sperm("-1,2"), perm("2,1")),
    (perm("2,1"), perm("1,2,3")),
    (sperm("-1,2"), sperm("1,2,3")),
])
def test_product_of_mixed_types_or_sizes_raises(u, v):
    with pytest.raises(ValueError, match="types or sizes differ"):
        u * v


def test_signed_action_on_negatives():
    w = sperm("3,1,-2")
    assert w(-1) == -3 and w(-3) == 2
    assert (w * w.inverse()) == SignedPermutation.identity(3)


# --- cyclic descents in S_n -------------------------------------------------

def test_type_a_cyclic_descents_41325():
    # 3 cyclic descents and 2 descents; maj forced by the definition
    cdes = cyclic_descents(perm("4,1,3,2,5"))
    assert cdes == frozenset({0, 1, 3})
    assert sum(cdes) == 4


def test_type_a_cyclic_descents_identity():
    assert cyclic_descents(Permutation.identity(5)) == frozenset({0})  # affine position only


def test_type_a_cyclic_descents_321():
    cdes = cyclic_descents(perm("3,2,1"))
    assert cdes == frozenset({1, 2})
    assert sum(cdes) == 3


def test_type_a_cd_bounds():
    for n in range(2, 7):
        for w in all_permutations(n):
            assert 1 <= len(cyclic_descents(w)) <= n


def test_type_a_cyclic_descents_match_definition():
    for n in range(1, 6):
        for w in all_permutations(n):
            descents = {i for i in range(1, n) if w(i) > w(i + 1)}
            cyclic = descents | ({0} if n >= 2 and w(n) > w(1) else set())
            cdes = cyclic_descents(w)
            assert (cdes, len(cdes - {0}), sum(cdes)) == (cyclic, len(descents), sum(descents)), w


# --- enumeration and the cyclic-descent class index ----------------------------

GROUPS = [("A", n) for n in range(1, 7)] + [("C", n) for n in range(1, 5)]


def _validated_elements(family, n):
    # Built through the checking constructors, in the documented order.
    perms = itertools.permutations(range(1, n + 1))
    if family == "A":
        return [Permutation(images) for images in perms]
    return [
        SignedPermutation(tuple(s * v for s, v in zip(signs, images)))
        for images in perms
        for signs in itertools.product((1, -1), repeat=n)
    ]


def _enumerate(family, n):
    return list(all_permutations(n) if family == "A" else all_signed_permutations(n))


@pytest.mark.parametrize("family, n", GROUPS)
def test_enumerators_yield_the_validated_elements(family, n):
    expected = _validated_elements(family, n)
    got = _enumerate(family, n)
    assert got == expected
    assert [type(w) for w in got] == [type(w) for w in expected]


@pytest.mark.parametrize("n", [0, -1])
def test_enumerators_reject_sizes_below_one(n):
    for enumerate_group in (all_permutations, all_signed_permutations):
        with pytest.raises(ValueError, match="at least one symbol"):
            list(enumerate_group(n))
    with pytest.raises(ValueError, match="at least one symbol"):
        descent_classes("A", n)


def test_descent_classes_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        descent_classes("B", 3)


def test_descent_classes_refuse_sizes_past_signed_bytes(monkeypatch):
    # The size is refused before anything is enumerated: without
    # ``itertools`` an enumeration would raise something else.
    monkeypatch.setattr(perm_module, "itertools", None)
    for family, n in (("A", 128), ("C", 128), ("A", 255)):
        with pytest.raises(ValueError, match=f"GROUP_MAX_ORDER = 3,628,800: {family} at n={n}$"):
            descent_classes(family, n)


def _enumerated(*args):
    raise LookupError("enumerated")


@pytest.mark.parametrize("family, n, refused", [
    ("A", 11, True), ("C", 8, True), ("A", 10, False), ("C", 7, False),
])
def test_descent_classes_refuse_groups_past_the_order_limit(monkeypatch, family, n, refused):
    # S_11 and C_8 are refused before any enumeration; S_10 and C_7, the
    # largest groups of order at most 10!, reach it
    descent_classes.cache_clear()
    monkeypatch.setattr(perm_module, "itertools", types.SimpleNamespace(permutations=_enumerated))
    if refused:
        with pytest.raises(ValueError, match=f"GROUP_MAX_ORDER = 3,628,800: {family} at n={n}$"):
            descent_classes(family, n)
    else:
        with pytest.raises(LookupError, match="enumerated"):
            descent_classes(family, n)


@pytest.mark.parametrize("family, n", GROUPS + [("A", 7), ("C", 5)])
def test_descent_classes_partition_the_group_in_enumeration_order(family, n):
    # The oracle groups the elements by ``cyclic_descents``, which the index
    # does not call.
    expected = {}
    for w in _enumerate(family, n):
        expected.setdefault(cyclic_descents(w), []).append(w)
    classes = descent_classes(family, n)
    # Classes in order of first occurrence; members in enumeration order.
    assert [c.cdes for c in classes] == list(expected)
    for c in classes:
        members = c.members()
        assert members == expected[c.cdes]
        assert members[0] == c.first and c.size == len(members)
    # Every Cdes but the empty and the full one occurs (S_1 has one class).
    rank = n - 1 if family == "A" else n
    assert len(classes) == (1 if rank == 0 else 2 ** (rank + 1) - 2)


# --- cyclic descents in C_n -------------------------------------------------

def test_type_c_cyclic_descents_match_definition():
    for n in range(1, 5):
        order = list(range(1, n + 1)) + list(range(-n, 0))  # 1 < .. < n < -n < .. < -1
        rank = {x: r for r, x in enumerate(order)}
        for w in all_signed_permutations(n):
            descents = {i for i in range(1, n) if rank[w(i)] > rank[w(i + 1)]}
            descents |= {n} if w(n) < 0 else set()
            cyclic = descents | ({0} if w(1) > 0 else set())
            cdes = cyclic_descents(w)
            assert (cdes, len(cdes - {0})) == (cyclic, len(descents)), w


def test_type_c_cyclic_descents_paper_example():
    # cyclic descent at position 1 and descents at positions 1 and 3
    assert cyclic_descents(sperm("3,1,-2,4,5")) == frozenset({0, 1, 3})


def test_type_c_cyclic_descents_identity_and_negatives():
    assert cyclic_descents(SignedPermutation.identity(2)) == frozenset({0})
    assert cyclic_descents(sperm("-2,-1")) == frozenset({2})


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


def _reference_cycles(w):
    # The cycles of i -> |w(i)|, followed through w's action w(i).
    seen, out = set(), []
    for start in range(1, w.n + 1):
        if start not in seen:
            cyc = [start]
            while abs(w(cyc[-1])) != start:
                cyc.append(abs(w(cyc[-1])))
            seen.update(cyc)
            out.append(tuple(cyc))
    return out


def _reference_cycle_type(w):
    lengths = {True: [], False: []}
    for cyc in _reference_cycles(w):
        lengths[sum(w(i) < 0 for i in cyc) % 2 == 0].append(len(cyc))
    if isinstance(w, Permutation):
        return CycleType(tuple(sorted(lengths[True], reverse=True)))
    return SignedCycleType(*(tuple(sorted(lengths[sign], reverse=True)) for sign in (True, False)))


@pytest.mark.parametrize("family, n", GROUPS)
def test_cycles_and_cycle_type_match_the_action(family, n):
    for w in _enumerate(family, n):
        if family == "A":
            assert w.cycles() == _reference_cycles(w)
        else:
            assert w.underlying().cycles() == _reference_cycles(w)
        assert cycle_type(w) == _reference_cycle_type(w)


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
        direct = sum(1 for w in all_signed_permutations(n) if len(cyclic_descents(w)) == r)
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
    delta = GroupAlgebraElement(GroupKind("C", 2), {SignedPermutation.identity(2): 1})
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
    a = GroupAlgebraElement(GroupKind("A", 3), {Permutation.identity(3): 1})
    b = GroupAlgebraElement(GroupKind("A", 4), {Permutation.identity(4): 1})
    with pytest.raises(ValueError):
        convolve(a, b)


def _naive_convolve(a, b):
    # The product one Fraction at a time, through the elements' own __mul__.
    out = {}
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            w = u * v
            out[w] = out.get(w, Fraction(0)) + cu * cv
    return out


def _random_element(rng, kind, elements):
    support = rng.sample(elements, rng.randint(0, min(len(elements), 8)))
    return GroupAlgebraElement(
        kind, {w: Fraction(rng.randint(-4, 4), rng.randint(1, 12)) for w in support}
    )


def test_convolve_matches_the_naive_product():
    rng = random.Random(20261019)
    pairs = []
    for family in ("A", "C"):
        for n in (1, 2, 3, 4):
            kind = GroupKind(family, n)
            elements = list(kind.elements())
            pairs += [(_random_element(rng, kind, elements), _random_element(rng, kind, elements))
                      for _ in range(40)]
    # every term cancels; the empty element on either side
    kind = GroupKind("C", 2)
    a = GroupAlgebraElement(kind, {sperm("1,2"): Fraction(1, 2), sperm("-1,2"): Fraction(-1, 2)})
    b = GroupAlgebraElement(kind, {sperm("1,2"): Fraction(1, 3), sperm("-1,2"): Fraction(1, 3)})
    empty = GroupAlgebraElement(kind, {})
    pairs += [(a, b), (empty, b), (a, empty)]
    cancelled = 0
    for a, b in pairs:
        naive = _naive_convolve(a, b)
        expected = {w: c for w, c in naive.items() if c != 0}
        cancelled += len(naive) - len(expected)
        assert list(convolve(a, b).coeffs.items()) == list(expected.items())
    assert cancelled > 2  # the random pairs cancel terms too


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
