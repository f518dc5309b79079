"""Verification orchestration: reports, profiles, fault injection."""

import dataclasses
import hashlib
import importlib
import json
import types
from fractions import Fraction

import pytest

from affine_shuffles import (
    cellini, closed_forms, fq, harness, numth, perm, series, shuffles, unimodal,
)
from affine_shuffles.cellini import RootSystem
from affine_shuffles.harness import (
    CHECKS,
    PROFILES,
    run_checks,
    verify_all,
    verify_dmp,
    verify_eta_worked_example,
    verify_limit_law,
    verify_reciprocity,
    verify_sampler,
    verify_shuffle_model_a,
    verify_shuffle_model_c,
    verify_type_c_product,
    verify_unimodal_product,
)
from affine_shuffles.perm import (
    ClassMeasure,
    CycleType,
    GroupKind,
    HistogramPair,
    Permutation,
    SignedCycleType,
    SignedPermutation,
)
from affine_shuffles.report import VerificationReport, first_difference


def test_dmp_frozen_passes():
    assert verify_dmp("A", 3, 3).passed
    assert verify_dmp("A", 3, 2).passed
    assert verify_dmp("C", 2, 2).passed


def test_dmp_rejects_unknown_family():
    with pytest.raises(ValueError):
        verify_dmp("B", 2, 2)


def test_reciprocity_examples():
    assert verify_reciprocity(3, 3, brute=True).passed
    assert verify_reciprocity(5, 2, brute=True).passed
    assert verify_reciprocity(2, 5, brute=True).passed
    assert "residues 0..q-2" in verify_reciprocity(3, 3).notes


def test_shuffle_model_orientation_notes():
    report = verify_shuffle_model_c(2, 3)
    assert report.passed
    assert "orientation" in report.notes
    assert verify_shuffle_model_a(4).passed


def test_fault_injection_produces_witness(monkeypatch):
    # the polynomial side with 1/4 of its mass moved from (1,1,1) to (3)
    masses = dict(fq.sl_class_measure(3, 2).masses)
    masses[CycleType((1, 1, 1))] -= Fraction(1, 4)
    masses[CycleType((3,))] += Fraction(1, 4)
    monkeypatch.setattr(fq, "sl_class_measure", lambda n, q: ClassMeasure(masses))
    report = verify_dmp("A", 3, 2)
    assert report.status == "fail"
    assert report.witness is not None
    assert "class" in report.witness
    assert report.witness["class"] == "CycleType(1, 1, 1)"
    # still JSON-serializable with rationals as strings
    payload = report.as_dict()
    json.dumps(payload)
    assert payload["status"] == "fail"


def _extra_self_conjugate_quartic(monkeypatch):
    # The product counts one self-conjugate irreducible of degree 4 too many;
    # the polynomial enumeration, the unimodal enumeration and the closed
    # forms do not read this count.
    sound = series.count_self_conjugate_irreducibles
    monkeypatch.setattr(
        series, "count_self_conjugate_irreducibles",
        lambda degree, q: sound(degree, q) + (degree == 4),
    )


def _lost_alcove_point(monkeypatch):
    # Every dilated alcove loses its first lattice point.
    sound = cellini._alcove_wall_sets
    monkeypatch.setattr(cellini, "_alcove_wall_sets", lambda rs, k: sound(rs, k)[1:])


def _shape_multiset_read_as_a_set(monkeypatch):
    # Every cycle shape is read with multiplicity 1, so classes that differ
    # only in how often a shape occurs merge.
    sound = unimodal.shape_multiset
    monkeypatch.setattr(
        unimodal, "shape_multiset", lambda w: tuple((shape, 1) for shape, _ in sound(w)),
    )


def _von_sterneck_counts_one_extra(monkeypatch):
    # Both sides of the reciprocity gain 1, so only the brute counts see it.
    sound = harness.von_sterneck
    monkeypatch.setattr(harness, "von_sterneck", lambda m, k, r: sound(m, k, r) + 1)


def _one_extra_cyclic_descent_count(module):
    # The hyperoctahedral histogram, as ``module`` reads it, counts one
    # element with 2 cyclic descents too many.
    def fault(monkeypatch):
        sound = module.descent_histograms

        def faulty(n):
            A, N = sound(n)
            return HistogramPair(A, N[:1] + (N[1] + 1,) + N[2:])

        monkeypatch.setattr(module, "descent_histograms", faulty)

    return fault


def _extra_unimodal_3_cycle(monkeypatch):
    # The closed form counts one unimodal 3-cycle too many.
    sound = unimodal.transitive_unimodal_count
    monkeypatch.setattr(
        unimodal, "transitive_unimodal_count", lambda n: sound(n) + (n == 3),
    )


def _unimodal_enumeration_one_short(monkeypatch):
    # The enumeration stops one subset short, so S_1 has no unimodal element.
    sound = unimodal.enumerate_unimodal
    monkeypatch.setattr(unimodal, "enumerate_unimodal", lambda n: sound(n)[:-1])


def _eta_without_conjugation(monkeypatch):
    # The eta map stops at the unsigned inverse and skips the conjugation by
    # i -> n+1-i, so its images are no longer unimodal from n = 3 on.
    def unconjugated(outcome):
        unimodal._validate_two_shuffle_outcome(outcome)
        return outcome.inverse().underlying()

    monkeypatch.setattr(unimodal, "eta_map", unconjugated)


def _partition_count_off_in_one_box(monkeypatch):
    # Method 1's partition count is 1 too high in the box of at most 3 parts,
    # each at most 1: at n = 4, only where k - cd(w) = 1.
    sound = numth.bounded_partition_count

    def corrupt(max_parts, max_part, modulus, residue):
        bump = max_parts == 3 and max_part == 1
        return sound(max_parts, max_part, modulus, residue) + bump

    monkeypatch.setattr(closed_forms, "bounded_partition_count", corrupt)


def _relabelled_kernel_outcome(source, target):
    # The merge kernel reports each merge into ``source`` as ``target``.
    def fault(monkeypatch):
        kernel = shuffles._riffle_images

        def relabelled(stacks, picks):
            images = kernel(stacks, picks)
            return target if images == source else images

        monkeypatch.setattr(shuffles, "_riffle_images", relabelled)

    return fault


def _moved_signed_mass(source, target, mass):
    # The type C polynomial side reads ``mass`` of the signed type ``source``
    # as ``target``.
    def fault(monkeypatch):
        sound = fq.sp_class_measure

        def faulty(n, q):
            masses = dict(sound(n, q).masses)
            masses[source] -= mass
            masses[target] = masses.get(target, 0) + mass
            return ClassMeasure(masses)

        monkeypatch.setattr(fq, "sp_class_measure", faulty)

    return fault


def _misfiled(family, n, moves):
    # The class index of (family, n) files each element of ``moves`` (its
    # text -> a Cdes) under that Cdes.  The routes and the shuffle models
    # read no index key, so they still see the true Cdes.  A key has a byte
    # per descent position 1..n-1, then 2 [n in Cdes] + [0 in Cdes].
    parse = Permutation.from_text if family == "A" else SignedPermutation.from_text

    def fault(monkeypatch):
        sound = perm._cdes_keys
        elements = list(GroupKind(family, n).elements())

        def misfiled(fam, size, flat):
            keys = bytearray(sound(fam, size, flat))
            if (fam, size) == (family, n):
                for text, cdes in moves.items():
                    start = n * elements.index(parse(text))
                    keys[start:start + n] = bytes(i in cdes for i in range(1, n)) + bytes(
                        [2 * (n in cdes) + (0 in cdes)])
            return bytes(keys)

        monkeypatch.setattr(perm, "_cdes_keys", misfiled)

    return fault


FAULTS = {
    "cellini_properties": (
        _lost_alcove_point, (RootSystem.type_a(3), 2, 2),
        {"identity": "sum_I a_kI |U_I| = k^r", "left": 1, "right": 4},
    ),
    "dmp": (
        # as if the square (z^2 + 1)^2 over F_3 gave a part 2 to mu, not to lam
        _moved_signed_mass(SignedCycleType((2,), ()), SignedCycleType((), (2,)),
                           Fraction(1, 9)),
        ("C", 2, 3),
        {"class": "SignedCycleType(lam=(), mu=(2,))",
         "polynomial_side": Fraction(1, 3), "shuffle_side": Fraction(2, 9)},
    ),
    "eta_map": (
        _eta_without_conjugation, (3,),
        {"issue": "image is not the unimodal set"},
    ),
    "eta_worked_example": (
        _eta_without_conjugation, (),
        {"image": "11,9,7,5,2,1,3,4,6,8,10,12"},
    ),
    "four_formulas": (
        _partition_count_off_in_one_box, (4, 4),
        {"element": "1,2,3,4", "k": 2,
         "values (methods 1, 4, lattice)": [Fraction(1, 4)] + [Fraction(1, 8)] * 2},
    ),
    "gannon_law": (
        _shape_multiset_read_as_a_set, (5,),
        {"shapes": "(((1), 1), ((2 1), 1))", "count": 4, "expected": 2},
    ),
    "histogram_identity": (
        _one_extra_cyclic_descent_count(harness), (3,),
        {"r": 1, "N_{r+1}": 33, "2^n A_r": 32},
    ),
    "limit_law": (
        # 1/16 of the mass moves from no positive fixed point to one
        _moved_signed_mass(SignedCycleType((), (8,)), SignedCycleType((1,), (7,)),
                           Fraction(1, 16)),
        (8, 2, 0.05),
        {"sup_norm": 0.0625},
    ),
    "measure_totals": (
        # 1,3,4,2 (Cdes {0, 3}, x_2 = 0) filed under {0} (x_2 = 1/8)
        _misfiled("A", 4, {"1,3,4,2": frozenset({0})}),
        CHECKS["measure_totals"][1]["quick"][0],
        {"family": "A", "n": 4, "k": 2,
         "issue": "masses must be nonnegative and sum to exactly 1; they sum to 9/8"},
    ),
    "reciprocity": (
        _von_sterneck_counts_one_extra, (3, 3, True),
        {"formula": 3, "brute_left": 2, "brute_right": 2},
    ),
    "reiner_identity": (
        _extra_self_conjugate_quartic, (2, 3),
        {"k": 1, "n": 2, "class": "SignedCycleType(lam=(), mu=(2,))",
         "product": 1, "closed_form": 0},
    ),
    "sampler_sanity": (
        # 1,2,3 reported as -1,2,3: one outcome of mass 1/8 reads 0, another 1/4
        _relabelled_kernel_outcome((1, 2, 3), (-1, 2, 3)),
        (3, 2, 100_000, 0.02, 20260810),
        {"sup_norm": Fraction(12572, 100_000)},
    ),
    "shuffle_model_a": (
        # 3,2,4,1 (Cdes {1, 3}, x_2 = 1/8) and 3,4,2,1 (Cdes {2, 3}, x_2 = 0)
        # trade classes; neither is the first of its class, so the total stays 1.
        _misfiled("A", 4, {"3,2,4,1": frozenset({2, 3}), "3,4,2,1": frozenset({1, 3})}),
        (4,),
        {"issue": "model matches neither orientation"},
    ),
    "shuffle_model_c": (
        # -2,1 (Cdes {1}, x_2 = 1/4) and its inverse 2,-1 (Cdes {0, 2},
        # x_2 = 0) trade classes, so the element turns into its inverse.
        _misfiled("C", 2, {"-2,1": frozenset({0, 2}), "2,-1": frozenset({1})}),
        (2, 2),
        {"issue": "model equals the element itself, not its inverse"},
    ),
    "transitive_unimodal": (
        _extra_unimodal_3_cycle, (10,),
        {"n": 3, "brute": 1, "closed_form": 2},
    ),
    "tv_equality": (
        # only the type C side reads the cyclic-descent histogram
        _one_extra_cyclic_descent_count(shuffles), (2, 2),
        {"affine_c_tv": Fraction(9, 16), "riffle_tv": Fraction(1, 2)},
    ),
    "type_c_product": (
        _extra_self_conjugate_quartic, (2, 2),
        {"n": 2, "class": "SignedCycleType(lam=(), mu=(2,))",
         "product": 2, "enumeration": 1},
    ),
    "unimodal_count": (
        _unimodal_enumeration_one_short, (10,),
        {"n": 1, "count": 0},
    ),
    "unimodal_product": (
        _extra_self_conjugate_quartic, (6,),
        {"n": 2, "class": "CycleType(2,)", "product": 2, "enumeration": 1},
    ),
}
"""Per registered check: a fault that corrupts one of its inputs, a
quick-profile argument tuple, and the witness of the report that must fail."""


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_injected_fault_fails_the_check(name, monkeypatch, cold_caches):
    fault, args, witness = FAULTS[name]
    function, cases = CHECKS[name]
    assert args in cases["quick"]
    fault(monkeypatch)
    report = function(*args)
    assert report.status == "fail"
    assert report.witness == witness


def test_every_check_has_a_fault():
    assert set(FAULTS) == set(CHECKS)


def test_cellini_properties_fails_on_a_wrong_product(monkeypatch):
    # The product moves 1/16 of its mass from the identity to 3,2,1.  The
    # measure sum reads no product, so the convolution law must fail.
    sound = perm.convolve
    identity, longest = Permutation.identity(3), Permutation.from_text("3,2,1")

    def moved(a, b):
        coeffs = dict(sound(a, b).coeffs)
        coeffs[identity] -= Fraction(1, 16)
        coeffs[longest] = coeffs.get(longest, 0) + Fraction(1, 16)
        return perm.GroupAlgebraElement(a.kind, coeffs)

    monkeypatch.setattr(perm, "convolve", moved)
    function, cases = CHECKS["cellini_properties"]
    args = (RootSystem.type_a(3), 2, 2)
    assert args in cases["quick"]
    report = function(*args)
    assert report.status == "fail"
    assert report.witness == {"identity": "x_k x_h = x_kh", "element": "1,2,3",
                              "left": Fraction(3, 16), "right": Fraction(1, 4)}


@pytest.mark.parametrize("check, args, message", [
    (series.reiner_identity_check, (0, 3), "n_max must be positive, got 0"),
    (series.reiner_identity_check, (2, 0), "k_max must be positive, got 0"),
    (verify_type_c_product, (0, 3), "n_max must be positive, got 0"),
    (verify_unimodal_product, (0,), "n_max must be positive, got 0"),
])
def test_product_checks_reject_empty_sizes(check, args, message):
    with pytest.raises(ValueError, match=message):
        check(*args)


def test_report_invariants():
    with pytest.raises(ValueError):
        VerificationReport("x", {}, "fail", None, 0.0)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, "maybe", None, 0.0)


def test_limit_law_smoke():
    report = verify_limit_law(8, 2, 0.05)
    assert report.passed
    assert "sup-norm" in report.notes


def test_sampler_check_small():
    assert verify_sampler(2, 2, 20000, 0.03, 123).passed


@pytest.mark.parametrize("draws", [0, -1])
def test_sampler_rejects_no_draws(draws):
    with pytest.raises(ValueError, match="draws must be positive"):
        verify_sampler(3, 2, draws, 0.02, 1)


@pytest.mark.parametrize("n, k", [(256, 2), (3, 256), (300, 300)])
def test_sampler_refuses_outcomes_past_the_exact_limit(monkeypatch, n, k):
    # refused before any draw, and before the exact side enumerates its k^n
    # words: without ``itertools`` the enumeration would raise something else
    monkeypatch.setattr(shuffles, "count_picks", None)
    monkeypatch.setattr(shuffles, "itertools", None)
    with pytest.raises(ValueError, match=f"n={n}, k={k} .* more than EXACT_MAX_OUTCOMES"):
        verify_sampler(n, k, 10, 0.02, 1)


@pytest.mark.parametrize("n, k", [(20, 2), (10, 4), (1, 2**20), (10**6, 1)])
def test_exact_law_at_the_outcome_limit_is_allowed(monkeypatch, n, k):
    # k^n <= EXACT_MAX_OUTCOMES reaches the word enumeration
    def enumerated(*args, **kwargs):
        raise LookupError("enumerated")

    monkeypatch.setattr(shuffles, "itertools", types.SimpleNamespace(product=enumerated))
    with pytest.raises(LookupError, match="enumerated"):
        shuffles.affine_c_shuffle_distribution(n, k)


def test_sampler_sanity_reports_an_invalid_outcome(monkeypatch):
    _relabelled_kernel_outcome((1, 2, 3), (1, 1, 2))(monkeypatch)
    report = verify_sampler(3, 2, 100_000, 0.02, 20260810)
    assert report.status == "fail"
    assert report.witness["invalid_outcome"] == [1, 1, 2]
    assert report.witness["draws"] == 12527
    assert "not a signed permutation" in report.witness["issue"]


def test_first_difference():
    left = {"a": 1, "b": 2, "c": 3}
    assert first_difference(left, dict(left)) is None
    assert first_difference(left, {"a": 1, "b": 5, "c": 4}) == "b"
    assert first_difference(left, {"a": 1, "b": 5, "c": 4}, key=lambda k: -ord(k)) == "c"
    # a missing key counts as 0
    assert first_difference({"a": 1, "z": 0}, {"a": 1}) is None
    assert first_difference({"a": 1}, {"a": 1, "b": 2}) == "b"


def test_eta_worked_example_report():
    report = verify_eta_worked_example()
    assert report.passed
    assert "11,9,7,5,2,1,3,4,6,8,10,12" in report.notes


def test_reports_reproducible():
    first = verify_dmp("A", 3, 3)
    second = verify_dmp("A", 3, 3)
    d1, d2 = first.as_dict(), second.as_dict()
    d1.pop("elapsed"), d2.pop("elapsed")
    assert d1 == d2


def test_verify_all_quick_passes():
    reports = verify_all("quick")
    assert reports
    assert all(r.passed for r in reports)
    names = [(r.check_name, repr(r.parameters)) for r in reports]
    assert names == sorted(names)  # ordered by name, not completion time
    covered = {r.check_name for r in reports}
    assert {
        "dmp",
        "cellini_properties",
        "four_formulas",
        "tv_equality",
        "histogram_identity",
        "gannon_law",
        "transitive_unimodal",
        "eta_map",
        "eta_worked_example",
        "type_c_product",
        "unimodal_product",
        "reiner_identity",
        "reciprocity",
        "limit_law",
        "sampler_sanity",
        "measure_totals",
        "shuffle_model_a",
        "shuffle_model_c",
        "unimodal_count",
    } <= covered
    assert (len(reports), report_digest(reports)) == (138, "86e5bcc8efdcdee5")


def test_verify_all_full_digest():
    reports = verify_all("full")
    assert all(r.passed for r in reports)
    assert (len(reports), report_digest(reports)) == (973, "9c77c37b619093f2")


def test_reports_replay_from_their_parameters():
    for report in verify_all("quick"):
        function, _ = CHECKS[report.check_name]
        replayed = function(**report.parameters)
        assert replayed == dataclasses.replace(report, elapsed=replayed.elapsed)


def test_report_parameters_include_defaults():
    assert verify_reciprocity(3, 3).parameters["brute"] is False


def test_checks_keep_their_names_and_modules():
    # A check is found by its module and function name, as a call tracer does.
    for name, (function, _) in CHECKS.items():
        module = importlib.import_module(function.__module__)
        assert function.check_name == name
        assert getattr(module, function.__name__) is function
        assert function.__name__ in module.__all__


def report_digest(reports):
    """Every report, witnesses and notes included, hashed without its timing;
    a change that alters any report must re-pin the digest on purpose."""
    dumped = [{k: v for k, v in r.as_dict().items() if k != "elapsed"} for r in reports]
    return hashlib.sha256(json.dumps(dumped, sort_keys=True).encode()).hexdigest()[:16]


def test_verify_all_rejects_unknown_profile():
    with pytest.raises(ValueError):
        verify_all("gigantic")


def test_run_checks_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown check 'nope'.*'dmp'"):
        run_checks(["dmp", "nope"])


def test_profiles_exist():
    assert set(PROFILES) == {"quick", "full"}
