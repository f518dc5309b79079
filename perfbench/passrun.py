"""One benchmark pass in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --trace 0|1 --launch T [--setup-only]

``T`` is the ``time.monotonic()`` reading taken by the parent just before it
started this process, so set-up time covers interpreter start, the package
import and building the inputs.  Every ``lru_cache`` and field cache starts
empty because the process is new.  The pass runs every item of the workload
once, times each, and prints one JSON object on stdout: timings, peak
resident memory, CPU time, each item's output summary and, when traced, the
tracer's counters and spans.  Summaries are computed after the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up, reporting only setup_s")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import affine_shuffles
    from affine_shuffles import (
        cellini, closed_forms, fq, harness, numth, perm, series, shuffles, unimodal,
    )
    if not Path(affine_shuffles.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported affine_shuffles from {affine_shuffles.__file__}, not {SRC}")

    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    modules = SimpleNamespace(
        cellini=cellini, closed_forms=closed_forms, fq=fq, harness=harness,
        numth=numth, perm=perm, series=series, shuffles=shuffles, unimodal=unimodal,
    )
    items = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.launch
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results, durations, errors = [], [], []
    perf = time.perf_counter
    cpu0 = time.process_time()
    t0 = perf()
    for item in items:
        frame = tracer.begin_item(item.check) if tracer else None
        start = perf()
        try:
            results.append(item.call(modules))
            errors.append(None)
        except Exception as exc:  # an item that raises counts as failed
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        durations.append(perf() - start)
        if frame is not None:
            tracer.end_item(frame)
    wall_s = perf() - t0
    cpu_s = time.process_time() - cpu0
    end_monotonic = time.monotonic()
    rss_mib = peak_rss_mib()

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_mib": rss_mib,
        "process_span_s": end_monotonic - args.launch,
        "items": [],
    }
    if tracer is not None:
        tracer.stop()
        out["layers"] = layer_metrics(tracer, items, durations)
        out["trace"] = tracer.dump()
    for item, result, error, duration in zip(items, results, errors, durations):
        if error is None:
            try:
                summary = workloads.summarize(result)
            except Exception as exc:
                summary = {"error": f"summary failed: {type(exc).__name__}: {exc}"}
        else:
            summary = {"error": error}
        out["items"].append({
            "check": item.check, "label": item.label, "objects": item.objects,
            "reference": item.has_reference, "seconds": duration, "summary": summary,
        })
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


def peak_rss_mib() -> float:
    """Peak resident memory of this process image.

    ``ru_maxrss`` survives ``exec``, so in a child it can report the parent's
    size from before the exec; ``VmHWM`` is reset by ``exec``.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


HARNESS_CHECKS = (
    "dmp", "four_formulas", "measure_totals", "cellini_properties",
    "shuffle_model_a", "shuffle_model_c", "tv_equality", "histogram_identity",
    "gannon_law", "unimodal_count", "transitive_unimodal", "eta_map",
    "eta_worked_example", "type_c_product", "unimodal_product", "reiner_identity",
    "reciprocity", "limit_law", "sampler_sanity",
)


def layer_metrics(tracer, items, durations) -> dict:
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json."""
    get = tracer.get
    m: dict[str, float] = {}
    m["fq.factor.calls"] = get("fq.factor").calls
    m["fq.factor.self_s"] = get("fq.factor").self_s
    m["fq.irreducibles.self_s"] = get("fq.FieldContext.irreducibles").self_s
    m["fq.irreducibles.degrees_sieved"] = get("fq.FieldContext.irreducibles").extra
    m["fq.sl_class_measure.total_s"] = get("fq.sl_class_measure").total_s
    m["fq.sp_class_measure.total_s"] = get("fq.sp_class_measure").total_s
    m["fq.make_field.calls"] = get("fq.make_field").calls
    m["fq.make_field.total_s"] = get("fq.make_field").total_s
    m["perm.elements"] = get("perm.all_permutations").extra + get("perm.all_signed_permutations").extra
    for name in ("type_a_stats", "type_c_stats", "cycle_type"):
        m[f"perm.{name}.calls"] = get(f"perm.{name}").calls
        m[f"perm.{name}.self_s"] = get(f"perm.{name}").self_s
    m["perm.convolve.self_s"] = get("perm.convolve").self_s
    m["perm.descent_histograms.self_s"] = get("perm.descent_histograms").self_s
    m["perm.descent_histograms.hit_ratio"] = tracer.hit_ratio("perm.descent_histograms")
    m["cellini.alcove_points.points"] = get("cellini.alcove_points").extra
    m["cellini.alcove_points.hit_ratio"] = tracer.hit_ratio("cellini.alcove_points")
    m["cellini.x_k_generic.self_s"] = get("cellini.x_k_generic").self_s
    m["cellini.x_k_generic.hit_ratio"] = tracer.hit_ratio("cellini.x_k_generic")
    m["cellini.x_k_type_a_lattice.calls"] = get("cellini.x_k_type_a_lattice").calls
    m["cellini.x_k_type_a_lattice.self_s"] = get("cellini.x_k_type_a_lattice").self_s
    m["closed_forms.x_k_type_a.calls"] = get("closed_forms.x_k_type_a").calls
    m["closed_forms.x_k_type_a.self_s"] = get("closed_forms.x_k_type_a").self_s
    m["closed_forms.x_k_type_c.self_s"] = get("closed_forms.x_k_type_c").self_s
    m["closed_forms.x_k_measure_type_a.hit_ratio"] = tracer.hit_ratio("closed_forms.x_k_measure_type_a")
    m["numth.bounded_partition_count.self_s"] = get("numth.bounded_partition_count").self_s
    m["numth.von_sterneck.self_s"] = get("numth.von_sterneck").self_s
    m["numth.q_binomial.hit_ratio"] = tracer.hit_ratio("numth.q_binomial")
    samplers = [get(f"shuffles.{n}") for n in
                ("riffle_sample", "affine_c_shuffle_sample", "affine_a_2shuffle_sample")]
    m["shuffles.sample.draws"] = sum(s.calls for s in samplers)
    m["shuffles.sample.self_s"] = sum(s.self_s for s in samplers)
    m["shuffles.distribution.self_s"] = sum(
        get(f"shuffles.{n}").self_s for n in
        ("riffle_distribution", "affine_c_shuffle_distribution", "affine_a_2shuffle_distribution"))
    m["unimodal.enumerate_unimodal.self_s"] = get("unimodal.enumerate_unimodal").self_s
    m["unimodal.eta_map.calls"] = get("unimodal.eta_map").calls
    m["series.mul.calls"] = get("series.TruncatedSeries.__mul__").calls
    m["series.mul.self_s"] = get("series.TruncatedSeries.__mul__").self_s
    m["series.products.total_s"] = sum(
        get(f"series.{n}").total_s for n in
        ("rhs_type_c_product", "rhs_unimodal_product", "shape_cycle_index_product"))
    for check in HARNESS_CHECKS:
        m[f"harness.{check}.total_s"] = sum(
            d for item, d in zip(items, durations) if item.check == check)
    return m


if __name__ == "__main__":
    sys.exit(main())
