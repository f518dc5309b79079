"""Acceptance criteria, one test per criterion, each at its stated size and
tolerance.  Every equality is exact rational equality unless a tolerance is
given.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion pass lines.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction

from affine_shuffles import cellini, closed_forms, fq, harness, series, shuffles, unimodal
from affine_shuffles.numth import von_sterneck
from affine_shuffles.perm import (
    CycleType,
    SignedPermutation,
    all_permutations,
    cycle_type,
    descent_histograms,
    invert_element,
)


def _announce(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_01_dmp_type_a():
    start = time.perf_counter()
    ok = all(
        harness.verify_dmp("A", n, q).passed
        for n in range(1, 7)
        for q in (2, 3, 4, 5)
    )
    masses = fq.sl_class_measure(3, 3).masses
    ok = ok and dict(masses) == {
        CycleType((1, 1, 1)): Fraction(2, 9),
        CycleType((2, 1)): Fraction(3, 9),
        CycleType((3,)): Fraction(4, 9),
    }
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 60
    _announce(1, ok, f"DMP analog type A, n <= 6, q in 2..5, masses 2/9,3/9,4/9 at (3,3) [{elapsed:.1f}s]")


def test_criterion_02_dmp_type_c():
    start = time.perf_counter()
    ok = all(
        harness.verify_dmp("C", n, q).passed for n in range(1, 5) for q in (2, 3, 5)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 60
    _announce(2, ok, f"DMP analog type C, n <= 4, q in (2,3,5) [{elapsed:.1f}s]")


def test_criterion_03_four_formula_agreement():
    ok = True
    for n in range(1, 7):
        for k in range(1, 9):
            for w in all_permutations(n):
                values = {closed_forms.x_k_type_a(w, k, m) for m in (1, 2, 3, 4)}
                values.add(cellini.x_k_type_a_lattice(w, k))
                if len(values) != 1:
                    ok = False
    _announce(3, ok, "four closed forms + lattice definition agree, n <= 6, k <= 8")


def test_criterion_04_cellini_properties():
    ok = True
    for n in range(2, 6):
        for k in range(1, 9):
            ok = ok and cellini.x_k_generic(cellini.RootSystem.type_a(n), k).is_probability()
    for n in range(1, 4):
        for k in range(1, 9):
            ok = ok and cellini.x_k_generic(cellini.RootSystem.type_c(n), k).is_probability()
    for k, h in itertools.product((2, 3), repeat=2):
        ok = ok and cellini.verify_cellini_properties(cellini.RootSystem.type_a(4), k, h).passed
        ok = ok and cellini.verify_cellini_properties(cellini.RootSystem.type_c(3), k, h).passed
    # pair count example: 9 = 3^2 on the rank-2 type A system
    report = cellini.verify_cellini_properties(cellini.RootSystem.type_a(3), 3, 2)
    ok = ok and report.passed and "pair count = 9" in report.notes
    _announce(4, ok, "measure sums, convolution law, and (y,w) pair counts")


def test_criterion_05_shuffle_models():
    ok = True
    for n in range(2, 7):
        model = shuffles.affine_a_2shuffle_distribution(n)
        ok = ok and dict(model.coeffs) == invert_element(
            closed_forms.x_k_measure_type_a(n, 2)
        ).coeffs
    for n in range(1, 4):
        for k in range(1, 7):
            model = shuffles.affine_c_shuffle_distribution(n, k)
            ok = ok and dict(model.coeffs) == invert_element(
                closed_forms.x_k_measure_type_c(n, k)
            ).coeffs
    _announce(5, ok, "models equal inverted elements: type A n <= 6, type C n <= 3, k <= 6")


def test_criterion_06_tv_equality():
    ok = True
    for n in range(2, 7):
        for k in (2, 4, 6, 8):
            ok = ok and shuffles.theorem_tv_check(n, k).passed
    ok = ok and shuffles.tv_affine_c_to_uniform(2, 2) == Fraction(1, 2)
    ok = ok and shuffles.tv_riffle_to_uniform(2, 1) == Fraction(1, 2)
    _announce(6, ok, "TV(affine C k-shuffle, uniform) = TV(k/2-riffle, uniform), n <= 6")


def test_criterion_07_histogram_identity():
    ok = True
    for n in range(1, 7):
        A, N = descent_histograms(n)
        ok = ok and all(N[r] == 2**n * A[r] for r in range(n))
    _announce(7, ok, "N_{r+1} = 2^n A_r for n <= 6, all r")


def test_criterion_08_gannon_law():
    ok = True
    for n in range(1, 11):
        for key, count in unimodal.gannon_histogram(n).items():
            if count != 2 ** (len(key) - 1):
                ok = False
    for n in range(1, 15):
        if len(set(unimodal.enumerate_unimodal(n))) != 2 ** (n - 1):
            ok = False
    _announce(8, ok, "shape classes of size 2^{l-1} (n <= 10); 2^{n-1} unimodal (n <= 14)")


def test_criterion_09_transitive_counts():
    ok = True
    for n in range(1, 15):
        brute = sum(1 for w in unimodal.enumerate_unimodal(n) if len(w.cycles()) == 1)
        ok = ok and unimodal.transitive_unimodal_count(n) == brute
    ok = ok and [unimodal.transitive_unimodal_count(n) for n in range(1, 7)] == [1, 1, 1, 2, 3, 5]
    _announce(9, ok, "transitive unimodal counts: closed form = brute force, n <= 14")


def test_criterion_10_eta_map():
    ok = True
    for n in range(1, 11):
        images = Counter()
        for outcome in shuffles.two_shuffle_outcomes(n):
            image = unimodal.eta_map(outcome)
            ok = ok and cycle_type(outcome.underlying()) == cycle_type(image)
            images[image] += 1
        ok = ok and set(images) == set(unimodal.enumerate_unimodal(n))
        ok = ok and all(c == 2 for c in images.values())
    outcome = SignedPermutation.from_text("-6,-5,7,8,-4,9,-3,10,-2,11,-1,12")
    ok = ok and outcome.inverse().underlying().images == (11, 9, 7, 5, 2, 1, 3, 4, 6, 8, 10, 12)
    ok = ok and unimodal.is_unimodal(unimodal.eta_map(outcome))
    _announce(10, ok, "eta is 2-to-1, onto, type-preserving (n <= 10); 12-card example")


def test_criterion_11_generating_products():
    ok = True
    for q in (2, 3, 4, 5):
        ok = ok and harness.verify_type_c_product(3, q).passed
    ok = ok and harness.verify_unimodal_product(8).passed
    ok = ok and series.reiner_identity_check(3, 4).passed
    _announce(11, ok, "type C product (n <= 3, q <= 5); unimodal product (n <= 8); descent identity (n <= 3, k <= 4)")


def test_criterion_12_reciprocity():
    ok = True
    for n in range(2, 31):
        for q in range(2, 31):
            if von_sterneck(q - 1, n, 0) != von_sterneck(n, q - 1, 0):
                ok = False
    for n in range(2, 11):
        for q in range(2, 11):
            left = von_sterneck(q - 1, n, 0)
            brute = sum(
                1
                for combo in itertools.combinations_with_replacement(range(q - 1), n)
                if sum(combo) % (q - 1) == 0
            )
            if left != brute:
                ok = False
    _announce(12, ok, "von Sterneck reciprocity 2 <= n, q <= 30; brute force 2 <= n, q <= 10")


def test_criterion_13_limit_law():
    report = harness.verify_limit_law(8, 2, 0.05)
    _announce(13, report.passed, f"lambda_1 marginal vs limiting geometric law ({report.notes})")


def test_criterion_14_sampler_sanity():
    report = harness.verify_sampler(3, 2, 100_000, 0.02, seed=20260810)
    _announce(14, report.passed, f"10^5 seeded draws within 0.02 sup norm ({report.notes})")
