"""Orchestrated verification of every identity the library implements.

Each check is a function decorated with ``report.check(name)``: it returns
only its witness, None when it passes, with its notes if it has any, and the
decorator turns that into a :class:`VerificationReport`.  ``CHECKS`` registers every check under that
name with its argument tuples per profile ("quick" for a fast smoke run,
"full" for the acceptance sizes); ``run_checks`` runs the named checks and
``verify_all`` the whole battery, both returning the reports sorted by check
name.

``dmp`` and ``four_formulas`` compare the x_k routes once per class of
``perm.descent_classes``, on the class's first element: every route is a
function of the cyclic descent set, so the classes' first elements meet the
first disagreeing element of a whole-group scan, with the same witness.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable

from . import cellini, closed_forms, fq, series, shuffles, unimodal
from .cellini import RootSystem
from .perm import (
    CycleType,
    SignedPermutation,
    _check_family,
    cycle_type,
    descent_classes,
    descent_histograms,
    invert_element,
)
from .numth import binomial, von_sterneck
from .report import VerificationReport, check, first_difference

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


@check("dmp")
def verify_dmp(family: str, n: int, q: int):
    """Class-measure equality: random polynomial factorization types versus
    the affine q-shuffle element, with every available route cross-checked."""
    rs = _root_system(family, n)
    try:
        generic = cellini.x_k_generic(rs, q)
    except ValueError as exc:  # probability() saw a negative mass or a total other than 1
        return {"route": "x_k_generic", "issue": str(exc)}
    if family == "A":
        polynomial = fq.sl_class_measure(n, q)
        for w in (cls.first for cls in descent_classes("A", n)):
            values = [closed_forms.x_k_type_a(w, q, method) for method in (1, 4)]
            values.append(generic.coefficient(w))
            if any(v != values[0] for v in values):
                return {"element": w.to_text(), "values (methods 1, 4, generic)": values}
    else:
        polynomial = fq.sp_class_measure(n, q)
        for w in (cls.first for cls in descent_classes("C", n)):
            closed = closed_forms.x_k_type_c(w, q)
            if closed != generic.coefficient(w):
                return {"element": w.to_text(), "closed_form": closed,
                        "lattice": generic.coefficient(w)}

    # Every route agreed on every class, so the generic element stands for all.
    shuffle = generic.class_measure()
    bad = first_difference(polynomial.masses, shuffle.masses, key=repr)
    if bad is not None:
        return {"class": repr(bad), "polynomial_side": polynomial.mass(bad),
                "shuffle_side": shuffle.mass(bad)}
    return None, f"{len(polynomial.masses)} classes compared exactly"


@check("four_formulas")
def verify_four_formulas(n: int, k_max: int):
    """The type A formulas agree pointwise: closed-form methods 1 and 4 and
    the per-element alcove count (methods 2 and 3 are aliases of method 1)."""
    for k in range(1, k_max + 1):
        for w in (cls.first for cls in descent_classes("A", n)):
            values = [closed_forms.x_k_type_a(w, k, method) for method in (1, 4)]
            values.append(cellini.x_k_type_a_lattice(w, k))
            if any(v != values[0] for v in values):
                return {"element": w.to_text(), "k": k,
                        "values (methods 1, 4, lattice)": values}
    return None


@check("measure_totals")
def verify_measure_totals(cases: tuple[tuple[str, int, int], ...]):
    """Coefficients of the generic element are nonnegative and sum to 1."""
    for family, n, k in cases:
        rs = _root_system(family, n)
        try:
            cellini.x_k_generic(rs, k)
        except ValueError as exc:  # probability() saw a negative mass or a total other than 1
            return {"family": family, "n": n, "k": k, "issue": str(exc)}
    return None


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


@check("shuffle_model_a")
def verify_shuffle_model_a(n: int):
    """The two-pile model's exact distribution inverts the type A 2-shuffle."""
    model = shuffles.affine_a_2shuffle_distribution(n)
    return _orientation_notes(model, closed_forms.x_k_measure_type_a(n, 2))


@check("shuffle_model_c")
def verify_shuffle_model_c(n: int, k: int):
    """The flip-and-riffle model's exact distribution inverts the type C element."""
    model = shuffles.affine_c_shuffle_distribution(n, k)
    return _orientation_notes(model, closed_forms.x_k_measure_type_c(n, k))


@check("histogram_identity")
def verify_histogram_identity(n: int):
    """Cyclic-descent histogram on C_n is 2^n times the Eulerian histogram."""
    A, N = descent_histograms(n)
    for r in range(n):
        if N[r] != 2**n * A[r]:
            return {"r": r, "N_{r+1}": N[r], "2^n A_r": 2**n * A[r]}
    return None


@check("gannon_law")
def verify_gannon(n: int):
    """Every shape-multiset class of unimodal permutations has size 2^{l-1}."""
    histogram = unimodal.gannon_histogram(n)
    total = 0
    for key, count in histogram.items():
        total += count
        l = len(key)
        if count != 2 ** (l - 1):
            return {"shapes": repr(key), "count": count, "expected": 2 ** (l - 1)}
    if total != 2 ** (n - 1):
        return {"total": total, "expected": 2 ** (n - 1)}
    return None


@check("unimodal_count")
def verify_unimodal_counts(n_max: int):
    for n in range(1, n_max + 1):
        perms = unimodal.enumerate_unimodal(n)
        if len(set(perms)) != 2 ** (n - 1) or not all(unimodal.is_unimodal(w) for w in perms):
            return {"n": n, "count": len(set(perms))}
    return None


@check("transitive_unimodal")
def verify_transitive_counts(n_max: int):
    """Closed form for unimodal n-cycles against brute-force enumeration."""
    for n in range(1, n_max + 1):
        brute = sum(1 for w in unimodal.enumerate_unimodal(n) if unimodal._is_n_cycle(w.images))
        formula = unimodal.transitive_unimodal_count(n)
        if brute != formula:
            return {"n": n, "brute": brute, "closed_form": formula}
    return None


@check("eta_map")
def verify_eta(n: int):
    """The 2-shuffle-to-unimodal map is 2-to-1, onto, and type preserving."""
    outcomes = shuffles.two_shuffle_outcomes(n)
    images = Counter()
    for outcome in outcomes:
        image = unimodal.eta_map(outcome)
        if cycle_type(outcome.underlying()) != cycle_type(image):
            return {"outcome": outcome.to_text(), "image": image.to_text(),
                    "issue": "unsigned cycle type not preserved"}
        images[image] += 1
    unimodal_set = set(unimodal.enumerate_unimodal(n))
    if set(images) != unimodal_set:
        return {"issue": "image is not the unimodal set"}
    bad = [w for w, c in images.items() if c != 2]
    if bad:
        return {"issue": "not 2-to-1", "element": bad[0].to_text(),
                "preimages": images[bad[0]]}
    return None


@check("eta_worked_example")
def verify_eta_worked_example():
    """The 12-card cut-at-6 interleaving reproduces its printed inverse."""
    outcome = SignedPermutation.from_text("-6,-5,7,8,-4,9,-3,10,-2,11,-1,12")
    intermediate = outcome.inverse().underlying()
    expected = (11, 9, 7, 5, 2, 1, 3, 4, 6, 8, 10, 12)
    if intermediate.images != expected:
        return {"intermediate": intermediate.images, "expected": expected}
    image = unimodal.eta_map(outcome)
    if not unimodal.is_unimodal(image):
        return {"image": image.to_text()}
    return None, f"unsigned inverse {','.join(map(str, expected))}; image {image.to_text()}"


@check("type_c_product")
def verify_type_c_product(n_max: int, q: int):
    """Product-formula coefficients count palindromic polynomials by type."""
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    return series.slice_witness(
        n_max, lambda n: series.type_c_product_slice(q, n),
        lambda n: {t: mass * q**n for t, mass in fq.sp_class_measure(n, q).masses.items()},
        "enumeration",
    )


@check("unimodal_product")
def verify_unimodal_product(n_max: int):
    """Unimodal permutations by cycle type, read off the type C product at
    q = 2 with each signed type folded into the cycle type of lam + mu and
    each u^n slice halved, against direct enumeration."""
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")

    def product(n: int) -> dict:
        unsigned: Counter = Counter()
        for t, coeff in series.type_c_product_slice(2, n).items():
            unsigned[CycleType(tuple(sorted(t.lam + t.mu, reverse=True)))] += coeff
        return {t: Fraction(coeff, 2) for t, coeff in unsigned.items()}

    def enumeration(n: int) -> Counter:
        return Counter(cycle_type(w) for w in unimodal.enumerate_unimodal(n))

    return series.slice_witness(n_max, product, enumeration, "enumeration")


@check("reciprocity")
def verify_reciprocity(n: int, q: int, brute: bool = False):
    """Multiset-count reciprocity between moduli q-1 and n."""
    left = von_sterneck(q - 1, n, 0)
    right = von_sterneck(n, q - 1, 0)
    if left != right:
        return {"left": left, "right": right}, _RECIPROCITY_NOTE
    if brute:
        brute_left = _zero_sum_multisets(q - 1, n)
        brute_right = _zero_sum_multisets(n, q - 1)
        if brute_left != left or brute_right != right:
            return ({"formula": left, "brute_left": brute_left, "brute_right": brute_right},
                    _RECIPROCITY_NOTE)
    return None, _RECIPROCITY_NOTE


@functools.lru_cache(maxsize=256)
def _zero_sum_multisets(modulus: int, size: int) -> int:
    # Multisets of ``size`` residues 0..modulus-1 whose sum is 0 mod modulus,
    # by enumeration, once per pair: the full profile asks for many pairs twice.
    sums = Counter(map(sum, itertools.combinations_with_replacement(range(modulus), size)))
    return sum(count for total, count in sums.items() if total % modulus == 0)


def _geometric_convolution(count: int, p: Fraction, j: int) -> Fraction:
    # Mass at j of the convolution of ``count`` geometrics with parameter p
    # (each supported on 0, 1, 2, ... with mass p (1-p)^j).
    if count == 0:
        return Fraction(1) if j == 0 else Fraction(0)
    return binomial(j + count - 1, j) * p**count * (1 - p) ** j


@check("limit_law")
def verify_limit_law(n: int, q: int, tolerance: float):
    """Finite-n smoke test for the limiting law of the positive fixed-point count.

    The exact marginal of the number of positive 1-cycles under the class
    measure at size n is compared, in sup norm, with the limiting convolution
    of (q + e - 1)/2 geometrics with parameter 1 - 1/q.  This is a convergence
    check with an engineering tolerance, not an exact identity.
    """
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
    return witness, f"sup-norm distance {sup:.6f}"


@check("sampler_sanity")
def verify_sampler(n: int, k: int, draws: int, tolerance: float, seed: int):
    """Seeded empirical frequencies stay near the exact model distribution.

    The exact law is built first, so a size past
    ``shuffles.EXACT_MAX_OUTCOMES`` is refused before any draw.
    ``count_picks`` counts the pick tuples of the draws over the model's
    plan; each distinct tuple is merged into images once, and each distinct
    outcome is validated once, as a ``SignedPermutation``, before it is
    compared.  The deviation max |count/draws - p| and the tolerance are
    compared as exact fractions."""
    if draws < 1:
        raise ValueError(f"draws must be positive, got {draws}")
    exact = shuffles.affine_c_shuffle_distribution(n, k)
    picks = shuffles.count_picks(shuffles.riffle_plan(n, k), draws, random.Random(seed))
    raw: Counter[tuple[int, ...]] = Counter()
    for pick, count in picks.items():
        raw[shuffles.affine_c_images(n, k, pick)] += count
    counts = {}
    for images, count in raw.items():
        try:
            counts[SignedPermutation(images)] = count
        except ValueError as exc:
            return {"invalid_outcome": list(images), "draws": count, "issue": str(exc)}
    sup = max(abs(Fraction(counts.get(w, 0), draws) - exact.coefficient(w))
              for w in set(exact.coeffs) | set(counts))
    witness = None if sup <= Fraction(tolerance) else {"sup_norm": sup}
    ten_thousandths = round(sup * 10_000)  # the exact value, rounded half to even
    return witness, f"sup-norm deviation {ten_thousandths // 10_000}.{ten_thousandths % 10_000:04d}"


# ---------------------------------------------------------------------------
# The check registry
# ---------------------------------------------------------------------------

PROFILES = ("quick", "full")

Cases = tuple[tuple, ...]


def _root_system(family: str, n: int) -> RootSystem:
    _check_family(family)
    return RootSystem.type_a(n) if family == "A" else RootSystem.type_c(n)


def _by_profile(*cases: Cases) -> dict[str, Cases]:
    """Argument tuples per profile, given in ``PROFILES`` order."""
    return dict(zip(PROFILES, cases, strict=True))


def _singles(values) -> Cases:
    return tuple((v,) for v in values)


def _reciprocity_cases(top: int, brute_top: int) -> Cases:
    sizes = range(2, top + 1)
    return tuple((n, q, n <= brute_top and q <= brute_top) for n in sizes for q in sizes)


CHECKS: dict[str, tuple[Callable[..., VerificationReport], dict[str, Cases]]] = {
    function.check_name: (function, _by_profile(*cases))
    for function, *cases in (
        (verify_dmp,
         tuple(("A", n, q) for n in range(1, 5) for q in (2, 3))
         + tuple(("C", n, q) for n in range(1, 3) for q in (2, 3)),
         tuple(("A", n, q) for n in range(1, 7) for q in (2, 3, 4, 5))
         + tuple(("C", n, q) for n in range(1, 5) for q in (2, 3, 5))),
        (verify_four_formulas, ((4, 4),), tuple((n, 8) for n in range(1, 7))),
        (verify_measure_totals,
         ((tuple([("A", n, k) for n in range(2, 5) for k in (2, 3, 4)]
                 + [("C", n, k) for n in range(1, 3) for k in (2, 3, 4)]),),),
         ((tuple([("A", n, k) for n in range(2, 6) for k in range(1, 9)]
                 + [("C", n, k) for n in range(1, 4) for k in range(1, 9)]),),)),
        (cellini.verify_cellini_properties,
         ((RootSystem.type_a(3), 2, 2), (RootSystem.type_a(3), 3, 3),
          (RootSystem.type_c(2), 2, 2), (RootSystem.type_c(2), 3, 2)),
         ((RootSystem.type_a(3), 3, 3),)
         + tuple((rs, k, h) for rs in (RootSystem.type_a(4), RootSystem.type_c(3))
                 for k in (2, 3) for h in (2, 3))),
        (verify_shuffle_model_a, _singles(range(2, 5)), _singles(range(2, 7))),
        (verify_shuffle_model_c,
         tuple((n, k) for n in (1, 2) for k in (2, 3, 4)),
         tuple((n, k) for n in (1, 2, 3) for k in range(1, 7))),
        (shuffles.theorem_tv_check,
         ((2, 2), (3, 2), (3, 4), (4, 2)),
         tuple((n, k) for n in range(2, 7) for k in (2, 4, 6, 8))),
        (verify_histogram_identity, _singles(range(1, 5)), _singles(range(1, 7))),
        (verify_gannon, _singles(range(1, 8)), _singles(range(1, 11))),
        (verify_unimodal_counts, ((10,),), ((14,),)),
        (verify_transitive_counts, ((10,),), ((14,),)),
        (verify_eta, _singles(range(1, 7)), _singles(range(1, 11))),
        (verify_eta_worked_example, ((),), ((),)),
        (verify_type_c_product, ((2, 2), (2, 3)), ((3, 2), (3, 3), (3, 4), (3, 5))),
        (verify_unimodal_product, ((6,),), ((8,),)),
        (series.reiner_identity_check, ((2, 3),), ((3, 4),)),
        (verify_reciprocity, _reciprocity_cases(10, 6), _reciprocity_cases(30, 10)),
        (verify_limit_law, ((8, 2, 0.05),), ((8, 2, 0.05),)),
        (verify_sampler,
         ((3, 2, 100_000, 0.02, 20260810),), ((3, 2, 100_000, 0.02, 20260810),)),
    )
}
"""Each check's function and, per profile, the argument tuples it is called
with, keyed by the ``check_name`` its ``check`` decorator gave it."""

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
