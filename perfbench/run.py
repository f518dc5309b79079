"""Benchmark runner for affine_shuffles.

    python3 perfbench/run.py --workload battery|poly_side|group_side \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  Each pass runs in a fresh interpreter
(``perfbench/passrun.py``), so every pass pays cache warm-up the way a
command-line user does.  Passes run one after another, never in parallel,
until the next one would end after ``--seconds`` (at least ``MIN_PASSES``).
Set-up time is sampled in every untraced pass and in ``SETUP_PROBES`` extra
processes after each, which stop once the inputs are built.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``, each the median over the passes.  With ``--trace 1``
untraced and traced passes alternate: the traced ones give the per-layer
metrics, the difference between the two gives ``trace.overhead_s``.

Every output is checked after the timed region: against
``perfbench/reference.json`` where the output does not depend on the seed,
and with sympy for the seeded random factorisations.  Two self-checks run on
every invocation: one corrupted output must be counted as a mismatch, and
(on ``poly_side``) one corrupted factorisation must be rejected.

The last line of stdout is the JSON result; the lines before it print each
metric by name with its unit, and the run's environment.  The full record
(passes, environment, trace) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_pass(workload: str, seed: int, trace: int, deadline: float,
             setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--launch", repr(launch)]
        + (["--setup-only"] if setup_only else []),
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=max(5.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["trace_on"] = trace
    return result


def schedule(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[dict], list[float]]:
    """Passes until the next would overrun ``seconds``, and set-up samples.

    With tracing, passes alternate untraced and traced, starting untraced.
    Set-up time is short and jittery, so ``SETUP_PROBES`` extra processes
    that stop after set-up follow each untraced pass.
    """
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    setups: list[float] = []
    while True:
        trace_on = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, int(trace_on), hard_deadline))
        if not trace_on:
            setups.append(passes[-1]["setup_s"])
            setups += [run_pass(workload, seed, 0, hard_deadline, setup_only=True)["setup_s"]
                       for _ in range(SETUP_PROBES)]
        elapsed = time.monotonic() - start
        typical = elapsed / len(passes)
        enough = len(passes) >= (2 if trace else MIN_PASSES)
        if enough and elapsed + typical > seconds:
            return passes, setups
        if elapsed + typical > RUN_LIMIT_S - 10:
            return passes, setups


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def item_id(entry: dict) -> str:
    return f"{entry['check']} {entry['label']}"


def reference_mismatches(items: list[dict], reference: dict) -> list[str]:
    """Ids of items whose output differs from the stored reference."""
    bad = []
    for entry in items:
        if "error" in entry["summary"]:
            bad.append(item_id(entry))
        elif entry["reference"] and reference.get(item_id(entry)) != entry["summary"]:
            bad.append(item_id(entry))
    return bad


def factor_ok(p: int, coeffs: list[int], factors: list) -> bool:
    """Factors rebuild the polynomial and their degrees match sympy's."""
    from sympy import Poly, symbols

    x = symbols("x")
    f = Poly(list(reversed(coeffs)), x, modulus=p)
    product = Poly(1, x, modulus=p)
    for g, mult in factors:
        product *= Poly(list(reversed(g)), x, modulus=p) ** mult
    if product != f:
        return False
    ours = sorted(len(g) - 1 for g, mult in factors for _ in range(mult))
    theirs = sorted(g.degree() for g, mult in f.factor_list()[1] for _ in range(mult))
    return ours == theirs


def stream_mismatches(items: list[dict], stream: list) -> list[int]:
    """Indices of random factorisations that sympy does not confirm."""
    bad = []
    factor_items = [e for e in items if not e["reference"]]
    for index, (entry, (p, coeffs)) in enumerate(zip(factor_items, stream)):
        summary = entry["summary"]
        if "error" in summary or not factor_ok(p, list(coeffs), summary["factors"]):
            bad.append(index)
    return bad


def count_failures(passes: list[dict], reference: dict, stream: list) -> tuple[int, list[str]]:
    """Failed items over all passes, plus notes naming the first few."""
    failed, notes = 0, []
    first = passes[0]["items"]
    bad_stream = set(stream_mismatches(first, stream)) if stream else set()
    first_unref = [e for e in first if not e["reference"]]
    for number, p in enumerate(passes):
        bad = reference_mismatches(p["items"], reference)
        unref = [e for e in p["items"] if not e["reference"]]
        for index, (entry, base) in enumerate(zip(unref, first_unref)):
            if "error" not in entry["summary"] and (
                    index in bad_stream or entry["summary"] != base["summary"]):
                bad.append(item_id(entry))
        failed += len(bad)
        notes += [f"pass {number}: {b}" for b in bad[:3]]
    return failed, notes


def self_check(items: list[dict], reference: dict, stream: list) -> list[str]:
    """Corrupt one output and confirm the checks count it; returns problems."""
    problems = []
    clean = reference_mismatches(items, reference)
    target = next((i for i, e in enumerate(items) if e["reference"]
                   and item_id(e) not in clean), None)
    if target is None:
        problems.append("no clean referenced output to corrupt")
    else:
        corrupted = list(items)
        corrupted[target] = dict(items[target], summary=workloads.corrupt(items[target]["summary"]))
        if len(reference_mismatches(corrupted, reference)) != len(clean) + 1:
            problems.append("a corrupted reference output was not counted")
    if stream:
        entry = next(e for e in items if not e["reference"])
        p, coeffs = stream[0]
        if "error" not in entry["summary"] and factor_ok(
                p, list(coeffs), workloads.corrupt(entry["summary"])["factors"]):
            problems.append("a corrupted factorisation passed the sympy check")
    return problems


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


def tail_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return f"tail percentile needs >= 11 passes, have {n}"
    return f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g} s"


def end_to_end(passes: list[dict], setups: list[float], objects: int) -> dict:
    untraced = [p for p in passes if not p["trace_on"]]
    wall = statistics.median(p["wall_s"] for p in untraced)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in untraced),
        "objects_per_s": objects / wall,
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["trace_on"]]
    untraced = [p for p in passes if not p["trace_on"]]
    names = traced[0]["layers"].keys()
    out = {n: statistics.median_low(p["layers"][n] for p in traced) for n in names}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in untraced)
    out["trace.coverage"] = statistics.median(
        sum(e["seconds"] for e in p["items"]) / p["process_span_s"] for p in traced)
    out["process.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "affine_shuffles" / "__init__.py").is_file():
        return fail(f"no package source at {ROOT / 'src' / 'affine_shuffles'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found next to perfbench/")
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    layers = json.loads((HERE / "layers.json").read_text())

    items = workloads.build(args.workload, args.seed)
    objects = sum(item.objects for item in items)
    expected_objects = layers["workloads"][args.workload]["objects"]
    stream = workloads.random_stream(args.seed) if args.workload == "poly_side" else []

    if stream and importlib.util.find_spec("sympy") is None:
        return fail("sympy is needed to check the random factorisations")
    try:
        passes, setups = schedule(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    attempted = len(items) * len(passes)
    failed, notes = count_failures(passes, reference, stream)
    problems = self_check(passes[0]["items"], reference, stream)
    if objects != expected_objects:
        problems.append(f"object count {objects} differs from layers.json {expected_objects}")

    metrics = per_layer(passes) if args.trace else end_to_end(passes, setups, objects)
    missing = set(wanted) ^ set(metrics)
    if missing:
        return fail(f"metric names differ from BENCHMARK.json: {sorted(missing)}")

    env = environment(args.seed)
    walls = [p["wall_s"] for p in passes if not p["trace_on"]]
    print(f"workload {args.workload}: {len(items)} items, {objects} objects, "
          f"{len(passes)} passes ({sum(p['trace_on'] for p in passes)} traced)")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name in wanted:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(f"wall_s median of {len(walls)} untraced passes; {tail_percentile(walls)}")
    print(f"setup_s median of {len(setups)} set-ups")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} items)")
    if "process.cpu_s" not in wanted:
        cpu = statistics.median(p["cpu_s"] for p in passes if not p["trace_on"])
        print(f"process.cpu_s {cpu:.6g} s (diagnostic)")
    for line in notes + problems:
        print(f"problem: {line}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "environment": env, "metrics": metrics,
              "attempted": attempted, "failed": failed, "problems": notes + problems,
              "setups": setups, "passes": passes}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
