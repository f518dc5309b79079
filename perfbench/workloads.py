"""The benchmark's fixed inputs and the summaries its outputs are checked by.

Each workload is a list of items.  An item is one call into the public API of
``affine_shuffles``; it names the check or measure it exercises, the number of
objects it covers (counted from its inputs, never from the run), and whether
its output has a stored reference.  An object is a polynomial classified or
factored, a group element whose coefficient is computed, or a sampler draw.

* ``battery``: the case grid of the seed commit's ``PROFILES["full"]``,
  copied here so that later changes to the profiles do not change the
  benchmark.  Checks share ``lru_cache`` entries, so cache policy shows.
* ``poly_side``: class measures past the battery's sizes plus a seeded
  stream of random monic polynomials factored one at a time, so ``fq``
  does nearly all the work and the group layers stay idle.
* ``group_side``: x_k on S_8, C_5 and C_6 by the alcove, lattice and closed
  form routes, with no ``fq`` call; each (root system, k) pair runs once, so
  caches give no reuse.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("battery", "poly_side", "group_side")


@dataclass(frozen=True)
class Item:
    check: str
    label: str
    objects: int
    call: Callable[[Any], Any]
    has_reference: bool = True


def _order(family: str, n: int) -> int:
    return math.factorial(n) * (2**n if family == "C" else 1)


# ---------------------------------------------------------------------------
# battery: PROFILES["full"] at the seed commit
# ---------------------------------------------------------------------------

DMP_A = [(n, q) for n in range(1, 7) for q in (2, 3, 4, 5)]
DMP_C = [(n, q) for n in range(1, 5) for q in (2, 3, 5)]
FOUR_FORMULA = [(n, 8) for n in range(1, 7)]
MEASURE_TOTALS = tuple(
    [("A", n, k) for n in range(2, 6) for k in range(1, 9)]
    + [("C", n, k) for n in range(1, 4) for k in range(1, 9)]
)
CELLINI_CASES = [
    ("A", 3, 3, 3),
    ("A", 4, 2, 2), ("A", 4, 2, 3), ("A", 4, 3, 2), ("A", 4, 3, 3),
    ("C", 3, 2, 2), ("C", 3, 2, 3), ("C", 3, 3, 2), ("C", 3, 3, 3),
]
MODEL_A_SIZES = [2, 3, 4, 5, 6]
MODEL_C_CASES = [(n, k) for n in (1, 2, 3) for k in range(1, 7)]
TV_CASES = [(n, k) for n in range(2, 7) for k in (2, 4, 6, 8)]
HISTOGRAM_SIZES = [1, 2, 3, 4, 5, 6]
GANNON_SIZES = list(range(1, 11))
UNIMODAL_COUNT_MAX = 14
TRANSITIVE_MAX = 14
ETA_SIZES = list(range(1, 11))
PRODUCT_C_CASES = [(3, 2), (3, 3), (3, 4), (3, 5)]
PRODUCT_UNIMODAL_MAX = 8
REINER = (3, 4)
RECIPROCITY_FORMULA_MAX = 30
RECIPROCITY_BRUTE_MAX = 10
LIMIT_LAW = (8, 2, 0.05)
SAMPLER = (3, 2, 100_000, 0.02)  # the seed comes from the benchmark seed


def _root_system(m, family: str, n: int):
    rs = m.cellini.RootSystem
    return rs.type_a(n) if family == "A" else rs.type_c(n)


def battery(seed: int) -> list[Item]:
    items: list[Item] = []

    def add(check: str, label: str, objects: int, call: Callable[[Any], Any]) -> None:
        items.append(Item(check, label, objects, call))

    for n, q in DMP_A:
        add("dmp", f"A n={n} q={q}", q ** (n - 1) + _order("A", n),
            lambda m, n=n, q=q: m.harness.verify_dmp("A", n, q))
    for n, q in DMP_C:
        add("dmp", f"C n={n} q={q}", q**n + _order("C", n),
            lambda m, n=n, q=q: m.harness.verify_dmp("C", n, q))
    for n, k_max in FOUR_FORMULA:
        add("four_formulas", f"n={n} k_max={k_max}", k_max * _order("A", n),
            lambda m, n=n, k=k_max: m.harness.verify_four_formulas(n, k))
    add("measure_totals", "grid", sum(_order(f, n) for f, n, _ in MEASURE_TOTALS),
        lambda m: m.harness.verify_measure_totals(MEASURE_TOTALS))
    for family, n, k, h in CELLINI_CASES:
        add("cellini_properties", f"{family} n={n} k={k} h={h}", 3 * _order(family, n),
            lambda m, f=family, n=n, k=k, h=h:
                m.cellini.verify_cellini_properties(_root_system(m, f, n), k, h))
    for n in MODEL_A_SIZES:
        add("shuffle_model_a", f"n={n}", _order("A", n),
            lambda m, n=n: m.harness.verify_shuffle_model_a(n))
    for n, k in MODEL_C_CASES:
        add("shuffle_model_c", f"n={n} k={k}", _order("C", n),
            lambda m, n=n, k=k: m.harness.verify_shuffle_model_c(n, k))
    for n, k in TV_CASES:
        add("tv_equality", f"n={n} k={k}", 0,
            lambda m, n=n, k=k: m.shuffles.theorem_tv_check(n, k))
    for n in HISTOGRAM_SIZES:
        add("histogram_identity", f"n={n}", 0,
            lambda m, n=n: m.harness.verify_histogram_identity(n))
    for n in GANNON_SIZES:
        add("gannon_law", f"n={n}", 0, lambda m, n=n: m.harness.verify_gannon(n))
    add("unimodal_count", f"n_max={UNIMODAL_COUNT_MAX}", 0,
        lambda m: m.harness.verify_unimodal_counts(UNIMODAL_COUNT_MAX))
    add("transitive_unimodal", f"n_max={TRANSITIVE_MAX}", 0,
        lambda m: m.harness.verify_transitive_counts(TRANSITIVE_MAX))
    for n in ETA_SIZES:
        add("eta_map", f"n={n}", 0, lambda m, n=n: m.harness.verify_eta(n))
    add("eta_worked_example", "n=12", 0, lambda m: m.harness.verify_eta_worked_example())
    for n_max, q in PRODUCT_C_CASES:
        add("type_c_product", f"n_max={n_max} q={q}", sum(q**n for n in range(1, n_max + 1)),
            lambda m, n=n_max, q=q: m.harness.verify_type_c_product(n, q))
    add("unimodal_product", f"n_max={PRODUCT_UNIMODAL_MAX}", 0,
        lambda m: m.harness.verify_unimodal_product(PRODUCT_UNIMODAL_MAX))
    n_max, k_max = REINER
    add("reiner_identity", f"n_max={n_max} k_max={k_max}",
        k_max * sum(_order("C", n) for n in range(1, n_max + 1)),
        lambda m: m.series.reiner_identity_check(*REINER))
    top, brute_top = RECIPROCITY_FORMULA_MAX, RECIPROCITY_BRUTE_MAX
    for n in range(2, top + 1):
        for q in range(2, top + 1):
            brute = n <= brute_top and q <= brute_top
            add("reciprocity", f"n={n} q={q}", 0,
                lambda m, n=n, q=q, b=brute: m.harness.verify_reciprocity(n, q, brute=b))
    n, q, _ = LIMIT_LAW
    add("limit_law", f"n={n} q={q}", q**n, lambda m: m.harness.verify_limit_law(*LIMIT_LAW))
    n, k, draws, _ = SAMPLER
    add("sampler_sanity", f"n={n} k={k} draws={draws}", draws,
        lambda m: m.harness.verify_sampler(*SAMPLER, seed))
    return items


# ---------------------------------------------------------------------------
# poly_side: fq at sizes past the battery
# ---------------------------------------------------------------------------

# Past the battery's largest field (q = 5), over prime and prime-power q,
# small enough that a pass takes a few seconds and a run holds ten or more.
SL_CASES = [(5, 7), (4, 8), (4, 9)]
SP_CASES = [(3, 7), (3, 8)]
# (prime, degrees); every degree gets the same number of random polynomials,
# so only the coefficients depend on the seed.
STREAM = [(2, range(12, 25)), (3, range(12, 15))]
STREAM_PER_DEGREE = 20
# One fixed irreducible of each field's top stream degree leads the stream.
# Factoring it sieves every irreducible degree the stream can reach, so the
# sieve is paid once per pass whatever the seed; without it, whether a seed
# happens to draw a polynomial with no small factor decides whether the
# costliest sieve runs at all.
SIEVE_PINS = [
    (2, (1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1)),
    (3, (1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0, 1)),
]


def random_stream(seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """The sieve pins, then seeded monic polynomials, as (p, coefficients
    low degree first)."""
    rng = random.Random(seed)
    polys = [
        (p, tuple(rng.randrange(p) for _ in range(d)) + (1,))
        for p, degrees in STREAM
        for d in degrees
        for _ in range(STREAM_PER_DEGREE)
    ]
    rng.shuffle(polys)
    return SIEVE_PINS + polys


def _factor(m, p: int, coeffs: tuple[int, ...]):
    field = m.fq.make_field(p, 1)
    return m.fq.factor(field.poly(coeffs))


def poly_side(seed: int) -> list[Item]:
    items = [
        Item("sl_class_measure", f"n={n} q={q}", q ** (n - 1),
             lambda m, n=n, q=q: m.fq.sl_class_measure(n, q))
        for n, q in SL_CASES
    ]
    items += [
        Item("sp_class_measure", f"n={n} q={q}", q**n,
             lambda m, n=n, q=q: m.fq.sp_class_measure(n, q))
        for n, q in SP_CASES
    ]
    items += [
        Item("factor", f"p={p} " + ",".join(map(str, coeffs)), 1,
             lambda m, p=p, c=coeffs: _factor(m, p, c), has_reference=False)
        for p, coeffs in random_stream(seed)
    ]
    return items


# ---------------------------------------------------------------------------
# group_side: perm, cellini, closed_forms and numth only
# ---------------------------------------------------------------------------

def _lattice_element(m, n: int, k: int) -> dict:
    return {w: m.cellini.x_k_type_a_lattice(w, k) for w in m.perm.all_permutations(n)}


def group_side(seed: int) -> list[Item]:
    a8, c5, c6 = _order("A", 8), _order("C", 5), _order("C", 6)
    items = [
        Item("x_k_generic", "A n=8 k=3", a8,
             lambda m: m.cellini.x_k_generic(_root_system(m, "A", 8), 3)),
        Item("class_measure", "A n=8 k=3 generic", a8,
             lambda m: m.cellini.x_k_generic(_root_system(m, "A", 8), 3).class_measure()),
    ]
    items += [
        Item("x_k_measure_type_a", f"n=8 k=3 method={method}", a8,
             lambda m, method=method: m.closed_forms.x_k_measure_type_a(8, 3, method))
        for method in (1, 2, 3, 4)
    ]
    items.append(Item("x_k_type_a_lattice", "n=8 k=3", a8, lambda m: _lattice_element(m, 8, 3)))
    for n, k, order in ((5, 3, c5), (5, 4, c5), (6, 2, c6)):
        items.append(Item("x_k_generic", f"C n={n} k={k}", order,
                          lambda m, n=n, k=k: m.cellini.x_k_generic(_root_system(m, "C", n), k)))
        items.append(Item("x_k_measure_type_c", f"n={n} k={k}", order,
                          lambda m, n=n, k=k: m.closed_forms.x_k_measure_type_c(n, k)))
    items.append(Item("class_measure", "C n=6 k=2 closed form", c6,
                      lambda m: m.closed_forms.x_k_measure_type_c(6, 2).class_measure()))
    items.append(Item("four_formulas", "n=7 k_max=6", 6 * _order("A", 7),
                      lambda m: m.harness.verify_four_formulas(7, 6)))
    for family, n, k, h in (("A", 6, 3, 2), ("C", 4, 3, 2)):
        items.append(Item("cellini_properties", f"{family} n={n} k={k} h={h}",
                          3 * _order(family, n),
                          lambda m, f=family, n=n, k=k, h=h:
                              m.cellini.verify_cellini_properties(_root_system(m, f, n), k, h)))
    items.append(Item("shuffle_model_a", "n=8", a8, lambda m: m.harness.verify_shuffle_model_a(8)))
    return items


BUILDERS = {"battery": battery, "poly_side": poly_side, "group_side": group_side}


def build(workload: str, seed: int) -> list[Item]:
    return BUILDERS[workload](seed)


# ---------------------------------------------------------------------------
# Output summaries: exact, JSON-ready, small
# ---------------------------------------------------------------------------

def _fraction(c) -> str:
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def _element_digest(coeffs) -> dict:
    lines = sorted(
        f"{w.to_text()}:{_fraction(c)}" for w, c in coeffs.items() if c != 0
    )
    return {"support": len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def summarize(result) -> dict:
    """Reduce an item's output to the exact data the reference stores."""
    kind = type(result).__name__
    if kind == "VerificationReport":
        return {"status": result.status}
    if kind == "ClassMeasure":
        return {"masses": {repr(t): _fraction(c) for t, c in sorted(
            result.masses.items(), key=lambda tc: repr(tc[0]))}}
    if kind == "GroupAlgebraElement":
        return _element_digest(result.coeffs)
    if kind == "Factorization":
        return {"factors": [[list(g.coeffs), mult] for g, mult in result.factors]}
    if isinstance(result, dict):
        return _element_digest(result)
    raise TypeError(f"no summary for {kind}")


def corrupt(summary: dict) -> dict:
    """A copy of ``summary`` with exactly one value changed."""
    out = dict(summary)
    if "status" in out:
        out["status"] = "fail" if out["status"] == "pass" else "pass"
    elif "masses" in out:
        masses = dict(out["masses"])
        first = sorted(masses)[0]
        num, den = masses[first].split("/")
        masses[first] = f"{int(num) + 1}/{den}"
        out["masses"] = masses
    elif "sha256" in out:
        digest = out["sha256"]
        out["sha256"] = ("1" if digest[0] == "0" else "0") + digest[1:]
    elif "factors" in out:
        factors = [list(pair) for pair in out["factors"]]
        factors[0][1] += 1
        out["factors"] = factors
    else:
        out["corrupted"] = True
    return out
