"""Orchestrated verification of every identity the library implements.

Each check returns a :class:`VerificationReport`.  ``CHECKS`` registers every
check by name with its argument tuples per profile ("quick" for a fast smoke
run, "full" for the acceptance sizes); ``run_checks`` runs the named checks
and ``verify_all`` the whole battery, both returning the reports sorted by
check name.  A ``fault_injection`` flag on the main comparison perturbs one
coefficient before comparing, proving that the checks cannot pass vacuously.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable

from . import cellini, closed_forms, fq, series, shuffles, unimodal
from .perm import (
    SignedPermutation,
    all_permutations,
    all_signed_permutations,
    cycle_type,
    descent_histograms,
    invert_element,
)
from .numth import binomial, von_sterneck
from .report import CheckTimer, VerificationReport, first_difference

__all__ = [
    "CHECKS",
    "CHECK_ALIASES",
    "PROFILES",
    "run_checks",
    "verify_dmp",
    "verify_four_formulas",
    "verify_measure_totals",
    "verify_shuffle_model_a",
    "verify_shuffle_model_c",
    "verify_histogram_identity",
    "verify_gannon",
    "verify_unimodal_counts",
    "verify_transitive_counts",
    "verify_eta",
    "verify_eta_worked_example",
    "verify_type_c_product",
    "verify_unimodal_product",
    "verify_reciprocity",
    "verify_limit_law",
    "verify_sampler",
    "verify_all",
]

_RECIPROCITY_NOTE = (
    "summands read as residues 0..q-2 mod q-1; the literal set 0..q-1 "
    "overcounts (n=3, q=3 would give 6, not the polynomial count 2)"
)


def verify_dmp(family: str, n: int, q: int, fault_injection: bool = False) -> VerificationReport:
    """Class-measure equality: random polynomial factorization types versus
    the affine q-shuffle element, with every available route cross-checked."""
    timer = CheckTimer()
    params = {"family": family, "n": n, "q": q}
    if fault_injection:
        params["fault_injection"] = True

    generic = cellini.x_k_generic(_root_system(family, n), q)
    if family == "A":
        polynomial = fq.sl_class_measure(n, q)
        for w in all_permutations(n):
            values = [closed_forms.x_k_type_a(w, q, method) for method in (1, 2, 4)]
            values.append(generic.coefficient(w))
            if len(set(values)) != 1:
                return timer.report(
                    "dmp", params,
                    {"element": w.to_text(),
                     "values (methods 1, 2, 4, generic)": values},
                )
    else:
        polynomial = fq.sp_class_measure(n, q)
        for w in all_signed_permutations(n):
            closed = closed_forms.x_k_type_c(w, q)
            if closed != generic.coefficient(w):
                return timer.report(
                    "dmp", params,
                    {"element": w.to_text(), "closed_form": closed,
                     "lattice": generic.coefficient(w)},
                )

    # Every route agreed elementwise, so the generic element stands for all.
    shuffle_masses = dict(generic.class_measure().masses)
    if fault_injection:
        first = sorted(shuffle_masses, key=repr)[0]
        shuffle_masses[first] += Fraction(1, 10**6)

    bad = first_difference(polynomial.masses, shuffle_masses, key=repr)
    if bad is not None:
        return timer.report(
            "dmp", params,
            {"class": repr(bad), "polynomial_side": polynomial.mass(bad),
             "shuffle_side": shuffle_masses.get(bad, Fraction(0))},
        )
    return timer.report(
        "dmp", params, None,
        notes=f"{len(polynomial.masses)} classes compared exactly",
    )


def verify_four_formulas(n: int, k_max: int) -> VerificationReport:
    """The four type A formulas agree pointwise: closed-form methods 1, 2 and
    4 and the per-element alcove count (method 3 is an alias of method 1)."""
    timer = CheckTimer()
    params = {"n": n, "k_max": k_max}
    for k in range(1, k_max + 1):
        for w in all_permutations(n):
            values = [closed_forms.x_k_type_a(w, k, method) for method in (1, 2, 4)]
            values.append(cellini.x_k_type_a_lattice(w, k))
            if len(set(values)) != 1:
                return timer.report(
                    "four_formulas", params,
                    {"element": w.to_text(), "k": k,
                     "values (methods 1, 2, 4, lattice)": values},
                )
    return timer.report("four_formulas", params, None)


def verify_measure_totals(cases: tuple[tuple[str, int, int], ...]) -> VerificationReport:
    """Coefficients of the generic element are nonnegative and sum to 1."""
    timer = CheckTimer()
    params = {"cases": list(cases)}
    for family, n, k in cases:
        rs = _root_system(family, n)
        try:
            cellini.x_k_generic(rs, k)
        except ValueError as exc:  # probability() saw a negative mass or a total other than 1
            return timer.report(
                "measure_totals", params,
                {"family": family, "n": n, "k": k, "issue": str(exc)},
            )
    return timer.report("measure_totals", params, None)


def _orientation_notes(model, measure) -> tuple[dict | None, str]:
    inverse_match = model == invert_element(measure)
    direct_match = model == measure
    if inverse_match and direct_match:
        return None, "model matches both orientations (measure is inversion-symmetric)"
    if inverse_match:
        return None, "model matches the inverse orientation"
    if direct_match:
        return (
            {"issue": "model equals the element itself, not its inverse"},
            "",
        )
    return {"issue": "model matches neither orientation"}, ""


def verify_shuffle_model_a(n: int) -> VerificationReport:
    """The two-pile model's exact distribution inverts the type A 2-shuffle."""
    timer = CheckTimer()
    params = {"n": n}
    model = shuffles.affine_a_2shuffle_distribution(n)
    measure = closed_forms.x_k_measure_type_a(n, 2)
    witness, notes = _orientation_notes(model, measure)
    return timer.report("shuffle_model_a", params, witness, notes=notes)


def verify_shuffle_model_c(n: int, k: int) -> VerificationReport:
    """The flip-and-riffle model's exact distribution inverts the type C element."""
    timer = CheckTimer()
    params = {"n": n, "k": k}
    model = shuffles.affine_c_shuffle_distribution(n, k)
    measure = closed_forms.x_k_measure_type_c(n, k)
    witness, notes = _orientation_notes(model, measure)
    return timer.report("shuffle_model_c", params, witness, notes=notes)


def verify_histogram_identity(n: int) -> VerificationReport:
    """Cyclic-descent histogram on C_n is 2^n times the Eulerian histogram."""
    timer = CheckTimer()
    params = {"n": n}
    A, N = descent_histograms(n)
    for r in range(n):
        if N[r] != 2**n * A[r]:
            return timer.report(
                "histogram_identity", params,
                {"r": r, "N_{r+1}": N[r], "2^n A_r": 2**n * A[r]},
            )
    return timer.report("histogram_identity", params, None)


def verify_gannon(n: int) -> VerificationReport:
    """Every shape-multiset class of unimodal permutations has size 2^{l-1}."""
    timer = CheckTimer()
    params = {"n": n}
    histogram = unimodal.gannon_histogram(n)
    total = 0
    for key, count in histogram.items():
        total += count
        l = len(key)
        if count != 2 ** (l - 1):
            return timer.report(
                "gannon_law", params,
                {"shapes": repr(key), "count": count, "expected": 2 ** (l - 1)},
            )
    if total != 2 ** (n - 1):
        return timer.report(
            "gannon_law", params, {"total": total, "expected": 2 ** (n - 1)}
        )
    return timer.report("gannon_law", params, None)


def verify_unimodal_counts(n_max: int) -> VerificationReport:
    timer = CheckTimer()
    params = {"n_max": n_max}
    for n in range(1, n_max + 1):
        perms = unimodal.enumerate_unimodal(n)
        if len(set(perms)) != 2 ** (n - 1) or not all(unimodal.is_unimodal(w) for w in perms):
            return timer.report(
                "unimodal_count", params, {"n": n, "count": len(set(perms))}
            )
    return timer.report("unimodal_count", params, None)


def verify_transitive_counts(n_max: int) -> VerificationReport:
    """Closed form for unimodal n-cycles against brute-force enumeration."""
    timer = CheckTimer()
    params = {"n_max": n_max}
    for n in range(1, n_max + 1):
        brute = sum(1 for w in unimodal.enumerate_unimodal(n) if len(w.cycles()) == 1)
        formula = unimodal.transitive_unimodal_count(n)
        if brute != formula:
            return timer.report(
                "transitive_unimodal", params,
                {"n": n, "brute": brute, "closed_form": formula},
            )
    return timer.report("transitive_unimodal", params, None)


def verify_eta(n: int) -> VerificationReport:
    """The 2-shuffle-to-unimodal map is 2-to-1, onto, and type preserving."""
    timer = CheckTimer()
    params = {"n": n}
    outcomes = shuffles.two_shuffle_outcomes(n)
    images = Counter()
    for outcome in outcomes:
        image = unimodal.eta_map(outcome)
        if cycle_type(outcome.underlying()) != cycle_type(image):
            return timer.report(
                "eta_map", params,
                {"outcome": outcome.to_text(), "image": image.to_text(),
                 "issue": "unsigned cycle type not preserved"},
            )
        images[image] += 1
    unimodal_set = set(unimodal.enumerate_unimodal(n))
    if set(images) != unimodal_set:
        return timer.report(
            "eta_map", params, {"issue": "image is not the unimodal set"}
        )
    bad = [w for w, c in images.items() if c != 2]
    if bad:
        return timer.report(
            "eta_map", params,
            {"issue": "not 2-to-1", "element": bad[0].to_text(),
             "preimages": images[bad[0]]},
        )
    return timer.report("eta_map", params, None)


def verify_eta_worked_example() -> VerificationReport:
    """The 12-card cut-at-6 interleaving reproduces its printed inverse."""
    timer = CheckTimer()
    outcome = SignedPermutation.from_text("-6,-5,7,8,-4,9,-3,10,-2,11,-1,12")
    params = {"outcome": outcome.to_text()}
    intermediate = outcome.inverse().underlying()
    expected = (11, 9, 7, 5, 2, 1, 3, 4, 6, 8, 10, 12)
    if intermediate.images != expected:
        return timer.report(
            "eta_worked_example", params,
            {"intermediate": intermediate.images, "expected": expected},
        )
    image = unimodal.eta_map(outcome)
    if not unimodal.is_unimodal(image):
        return timer.report(
            "eta_worked_example", params, {"image": image.to_text()}
        )
    return timer.report(
        "eta_worked_example", params, None,
        notes=f"unsigned inverse {','.join(map(str, expected))}; image {image.to_text()}",
    )


def verify_type_c_product(n_max: int, q: int) -> VerificationReport:
    """Product-formula coefficients count palindromic polynomials by type."""
    timer = CheckTimer()
    params = {"n_max": n_max, "q": q}
    rhs = series.rhs_type_c_product(q, n_max)
    for n in range(1, n_max + 1):
        got = rhs.u_slice(n)
        expected: dict = {}
        for t, mass in fq.sp_class_measure(n, q).masses.items():
            mono = series.make_monomial(series.signed_type_monomial(t))
            expected[mono] = mass * q**n
        bad = first_difference(got, expected, key=repr)
        if bad is not None:
            return timer.report(
                "type_c_product", params,
                {"n": n, "monomial": dict(bad),
                 "product": got.get(bad, Fraction(0)),
                 "enumeration": expected.get(bad, Fraction(0))},
            )
    return timer.report("type_c_product", params, None)


def verify_unimodal_product(n_max: int) -> VerificationReport:
    """Cycle index product against direct unimodal enumeration."""
    timer = CheckTimer()
    params = {"n_max": n_max}
    rhs = series.rhs_unimodal_product(n_max)
    for n in range(1, n_max + 1):
        got = {mono: coeff * 2 ** (n - 1) for mono, coeff in rhs.u_slice(n).items()}
        expected: dict = {}
        for w in unimodal.enumerate_unimodal(n):
            exps: dict[str, int] = {}
            for part in cycle_type(w).parts:
                exps[f"x{part}"] = exps.get(f"x{part}", 0) + 1
            mono = series.make_monomial(exps)
            expected[mono] = expected.get(mono, Fraction(0)) + 1
        bad = first_difference(got, expected, key=repr)
        if bad is not None:
            return timer.report(
                "unimodal_product", params,
                {"n": n, "monomial": dict(bad),
                 "product": got.get(bad, Fraction(0)),
                 "enumeration": expected.get(bad, Fraction(0))},
            )
    return timer.report("unimodal_product", params, None)


def verify_reciprocity(n: int, q: int, brute: bool = False) -> VerificationReport:
    """Multiset-count reciprocity between moduli q-1 and n."""
    timer = CheckTimer()
    params = {"n": n, "q": q, "brute": brute}
    left = von_sterneck(q - 1, n, 0)
    right = von_sterneck(n, q - 1, 0)
    if left != right:
        return timer.report(
            "reciprocity", params, {"left": left, "right": right},
            notes=_RECIPROCITY_NOTE,
        )
    if brute:
        brute_left = sum(
            1
            for combo in itertools.combinations_with_replacement(range(q - 1), n)
            if sum(combo) % (q - 1) == 0
        )
        brute_right = sum(
            1
            for combo in itertools.combinations_with_replacement(range(n), q - 1)
            if sum(combo) % n == 0
        )
        if brute_left != left or brute_right != right:
            return timer.report(
                "reciprocity", params,
                {"formula": left, "brute_left": brute_left, "brute_right": brute_right},
                notes=_RECIPROCITY_NOTE,
            )
    return timer.report("reciprocity", params, None, notes=_RECIPROCITY_NOTE)


def _geometric_convolution(count: int, p: Fraction, j: int) -> Fraction:
    # Mass at j of the convolution of ``count`` geometrics with parameter p
    # (each supported on 0, 1, 2, ... with mass p (1-p)^j).
    if count == 0:
        return Fraction(1) if j == 0 else Fraction(0)
    return binomial(j + count - 1, j) * p**count * (1 - p) ** j


def verify_limit_law(n: int, q: int, tolerance: float) -> VerificationReport:
    """Finite-n smoke test for the limiting law of the positive fixed-point count.

    The exact marginal of the number of positive 1-cycles under the class
    measure at size n is compared, in sup norm, with the limiting convolution
    of (q + e - 1)/2 geometrics with parameter 1 - 1/q.  This is a convergence
    check with an engineering tolerance, not an exact identity.
    """
    timer = CheckTimer()
    params = {"n": n, "q": q, "tolerance": tolerance}
    e = 1 if q % 2 == 0 else 2
    count = (q + e - 1) // 2
    p = Fraction(q - 1, q)
    marginal: dict[int, Fraction] = {}
    for t, mass in fq.sp_class_measure(n, q).masses.items():
        j = sum(1 for part in t.lam if part == 1)
        marginal[j] = marginal.get(j, Fraction(0)) + mass
    sup = 0.0
    for j in range(0, n + 60):
        exact = marginal.get(j, Fraction(0))
        limit = _geometric_convolution(count, p, j)
        sup = max(sup, abs(float(exact - limit)))
    witness = None if sup <= tolerance else {"sup_norm": sup}
    return timer.report(
        "limit_law", params, witness, notes=f"sup-norm distance {sup:.6f}"
    )


def verify_sampler(
    n: int, k: int, draws: int, tolerance: float, seed: int
) -> VerificationReport:
    """Seeded empirical frequencies stay near the exact model distribution."""
    timer = CheckTimer()
    params = {"n": n, "k": k, "draws": draws, "tolerance": tolerance, "seed": seed}
    exact = shuffles.affine_c_shuffle_distribution(n, k)
    rng = random.Random(seed)
    counts: Counter = Counter()
    for _ in range(draws):
        counts[shuffles.affine_c_shuffle_sample(n, k, rng)] += 1
    sup = 0.0
    for w in set(exact.coeffs) | set(counts):
        sup = max(sup, abs(counts[w] / draws - float(exact.coefficient(w))))
    witness = None if sup <= tolerance else {"sup_norm": sup}
    return timer.report(
        "sampler_sanity", params, witness, notes=f"sup-norm deviation {sup:.4f}"
    )


# ---------------------------------------------------------------------------
# The check registry
# ---------------------------------------------------------------------------

PROFILES = ("quick", "full")

Cases = tuple[tuple, ...]


def _root_system(family: str, n: int) -> cellini.RootSystem:
    if family not in ("A", "C"):
        raise ValueError(f"family must be 'A' or 'C', got {family!r}")
    return cellini.RootSystem.type_a(n) if family == "A" else cellini.RootSystem.type_c(n)


def _verify_cellini(family: str, n: int, k: int, h: int) -> VerificationReport:
    return cellini.verify_cellini_properties(_root_system(family, n), k, h)


def _by_profile(*cases: Cases) -> dict[str, Cases]:
    """Argument tuples per profile, given in ``PROFILES`` order."""
    return dict(zip(PROFILES, cases, strict=True))


def _singles(values) -> Cases:
    return tuple((v,) for v in values)


def _reciprocity_cases(top: int, brute_top: int) -> Cases:
    sizes = range(2, top + 1)
    return tuple((n, q, n <= brute_top and q <= brute_top) for n in sizes for q in sizes)


CHECKS: dict[str, tuple[Callable[..., VerificationReport], dict[str, Cases]]] = {
    "dmp": (verify_dmp, _by_profile(
        tuple(("A", n, q) for n in range(1, 5) for q in (2, 3))
        + tuple(("C", n, q) for n in range(1, 3) for q in (2, 3)),
        tuple(("A", n, q) for n in range(1, 7) for q in (2, 3, 4, 5))
        + tuple(("C", n, q) for n in range(1, 5) for q in (2, 3, 5)),
    )),
    "four_formulas": (verify_four_formulas, _by_profile(
        ((4, 4),), tuple((n, 8) for n in range(1, 7)),
    )),
    "measure_totals": (verify_measure_totals, _by_profile(
        ((tuple([("A", n, k) for n in range(2, 5) for k in (2, 3, 4)]
                + [("C", n, k) for n in range(1, 3) for k in (2, 3, 4)]),),),
        ((tuple([("A", n, k) for n in range(2, 6) for k in range(1, 9)]
                + [("C", n, k) for n in range(1, 4) for k in range(1, 9)]),),),
    )),
    "cellini_properties": (_verify_cellini, _by_profile(
        (("A", 3, 2, 2), ("A", 3, 3, 3), ("C", 2, 2, 2), ("C", 2, 3, 2)),
        (("A", 3, 3, 3),) + tuple((family, n, k, h) for family, n in (("A", 4), ("C", 3))
                                  for k in (2, 3) for h in (2, 3)),
    )),
    "shuffle_model_a": (verify_shuffle_model_a, _by_profile(
        _singles(range(2, 5)), _singles(range(2, 7)),
    )),
    "shuffle_model_c": (verify_shuffle_model_c, _by_profile(
        tuple((n, k) for n in (1, 2) for k in (2, 3, 4)),
        tuple((n, k) for n in (1, 2, 3) for k in range(1, 7)),
    )),
    "tv_equality": (shuffles.theorem_tv_check, _by_profile(
        ((2, 2), (3, 2), (3, 4), (4, 2)),
        tuple((n, k) for n in range(2, 7) for k in (2, 4, 6, 8)),
    )),
    "histogram_identity": (verify_histogram_identity, _by_profile(
        _singles(range(1, 5)), _singles(range(1, 7)),
    )),
    "gannon_law": (verify_gannon, _by_profile(_singles(range(1, 8)), _singles(range(1, 11)))),
    "unimodal_count": (verify_unimodal_counts, _by_profile(((10,),), ((14,),))),
    "transitive_unimodal": (verify_transitive_counts, _by_profile(((10,),), ((14,),))),
    "eta_map": (verify_eta, _by_profile(_singles(range(1, 7)), _singles(range(1, 11)))),
    "eta_worked_example": (verify_eta_worked_example, _by_profile(((),), ((),))),
    "type_c_product": (verify_type_c_product, _by_profile(
        ((2, 2), (2, 3)), ((3, 2), (3, 3), (3, 4), (3, 5)),
    )),
    "unimodal_product": (verify_unimodal_product, _by_profile(((6,),), ((8,),))),
    "reiner_identity": (series.reiner_identity_check, _by_profile(((2, 3),), ((3, 4),))),
    "reciprocity": (verify_reciprocity, _by_profile(
        _reciprocity_cases(10, 6), _reciprocity_cases(30, 10),
    )),
    "limit_law": (verify_limit_law, _by_profile(((8, 2, 0.05),), ((8, 2, 0.05),))),
    "sampler_sanity": (verify_sampler, _by_profile(
        ((3, 2, 100_000, 0.02, 20260810),), ((3, 2, 100_000, 0.02, 20260810),),
    )),
}
"""Each check's function and, per profile, the argument tuples it is called
with; every key is the ``check_name`` its function puts on its reports."""

CHECK_ALIASES = {
    "cellini": "cellini_properties",
    "tv": "tv_equality",
    "gannon": "gannon_law",
    "reiner": "reiner_identity",
}
"""Short spellings the command line accepts for four registered checks."""


def run_checks(names: Iterable[str], profile: str = "quick") -> list[VerificationReport]:
    """Run the named registered checks at the profile's sizes.

    Reports come back sorted by check name and parameters, not completion
    order, so output is reproducible.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    try:
        entries = [CHECKS[name] for name in names]
    except KeyError as exc:
        raise ValueError(f"unknown check {exc.args[0]!r}; choose from {tuple(CHECKS)}") from None
    reports: list[VerificationReport] = []
    for function, cases in entries:
        reports.extend(function(*args) for args in cases[profile])
    reports.sort(key=lambda r: (r.check_name, repr(r.parameters)))
    return reports


def verify_all(profile: str = "quick") -> list[VerificationReport]:
    """Run every registered check at the named profile's sizes."""
    return run_checks(CHECKS, profile)
