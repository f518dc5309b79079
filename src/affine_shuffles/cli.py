"""Command-line interface.

Subcommands:

* ``measure``  -- print an affine k-shuffle measure (group order at most
  ``perm.GROUP_MAX_ORDER``) or one coefficient (any n and k);
* ``verify``   -- run a named verification check or the whole battery;
* ``sample``   -- draw from one of the shuffle models with a fixed seed
  (at most ``SAMPLE_MAX_COUNT`` draws and ``SAMPLE_MAX_CARDS`` cards);
* ``unimodal`` -- list unimodal permutations or their shape histogram
  (n at most ``UNIMODAL_MAX_N``).

Global flags ``--json``, ``--csv``, ``--out PATH`` and ``--decimal DIGITS``
control output.  All numbers are exact rationals rendered as "a/b" unless
``--decimal`` asks for rounded decimals.  Exit status is 1 iff a verification
check failed, and 2 for a usage error or an ``--out`` path that cannot be
written; such a path is refused before the command runs.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import random
import re
import sys
from fractions import Fraction

from . import closed_forms, harness, shuffles, unimodal
from .perm import ELEMENT_TYPES, GROUP_MAX_ORDER, GroupKind


def _render_fraction(value: Fraction, decimal: int | None) -> str:
    if decimal is not None:
        return f"{float(value):.{decimal}f}"
    return f"{value.numerator}/{value.denominator}"


class _Output:
    def __init__(self, args: argparse.Namespace):
        self.as_json = args.json
        self.as_csv = args.csv
        self.path = args.out
        self.decimal = args.decimal
        if self.path:
            self._refuse_unwritable()

    def _refuse_unwritable(self) -> None:
        # Before the command runs, and without creating the file; emit still
        # handles a path that stops being writable in between.
        parent = os.path.dirname(os.path.abspath(self.path))
        if os.path.isdir(self.path):
            self._cannot_write(os.strerror(errno.EISDIR))
        if os.path.exists(self.path):
            if not os.access(self.path, os.W_OK):
                self._cannot_write(os.strerror(errno.EACCES))
        elif not os.path.isdir(parent):
            self._cannot_write(os.strerror(errno.ENOENT))
        elif not os.access(parent, os.W_OK):
            self._cannot_write(os.strerror(errno.EACCES))

    def _cannot_write(self, reason: str) -> None:
        # exit 1 means a check failed, so an unwritable path exits 2
        print(f"affine-shuffles: error: cannot write --out {self.path}: {reason}",
              file=sys.stderr)
        raise SystemExit(2) from None

    def emit(self, text: str) -> None:
        # Empty output stays empty: a line reader would take "\n" as one empty record.
        if text and not text.endswith("\n"):
            text += "\n"
        if self.path:
            try:
                with open(self.path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                self._cannot_write(exc.strerror)
        else:
            sys.stdout.write(text)

    def emit_json(self, payload) -> None:
        self.emit(json.dumps(payload, indent=2, sort_keys=True))

    def emit_csv(self, header: list[str], rows: list[list[str]]) -> None:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
        self.emit(buffer.getvalue())


def _cmd_measure(args: argparse.Namespace, out: _Output) -> int:
    # type A by method 4, von Sterneck's route, whose cost does not grow with k
    family, n, k = args.family, args.n, args.k
    if args.element is not None:
        if family == "A":
            value = closed_forms.x_k_type_a(args.element, k, method=4)
        else:
            value = closed_forms.x_k_type_c(args.element, k)
        if out.as_json:
            out.emit_json({"family": family, "n": n, "k": k,
                           "element": args.element.to_text(),
                           "coefficient": _render_fraction(value, out.decimal)})
        else:
            out.emit(_render_fraction(value, out.decimal))
        return 0
    if family == "A":
        element = closed_forms.x_k_measure_type_a(n, k, method=4)
    else:
        element = closed_forms.x_k_measure_type_c(n, k)
    items = sorted(element.coeffs.items(), key=lambda kv: kv[0].images)
    if out.as_json:
        out.emit_json({
            "family": family, "n": n, "k": k,
            "masses": {w.to_text(): _render_fraction(c, out.decimal) for w, c in items},
        })
    elif out.as_csv:
        out.emit_csv(["element", "mass"],
                     [[w.to_text(), _render_fraction(c, out.decimal)] for w, c in items])
    else:
        out.emit("\n".join(f"{w.to_text()}\t{_render_fraction(c, out.decimal)}" for w, c in items))
    return 0


def _cmd_verify(args: argparse.Namespace, out: _Output) -> int:
    names = harness.CHECKS if args.check == "all" else (args.check,)
    reports = harness.run_checks(names, args.profile)
    failures = [r for r in reports if not r.passed]
    if out.as_json:
        out.emit_json([r.as_dict() for r in reports])
    elif out.as_csv:
        rows = [
            [r.check_name, json.dumps(r.as_dict()["parameters"], sort_keys=True),
             r.status, f"{r.elapsed:.4f}", r.notes]
            for r in reports
        ]
        out.emit_csv(["check", "parameters", "status", "elapsed", "notes"], rows)
    else:
        lines = []
        for r in reports:
            params = ", ".join(f"{k}={v}" for k, v in r.parameters.items())
            line = f"{r.status.upper():4s} {r.check_name} ({params}) [{r.elapsed * 1000:.1f} ms]"
            if r.notes:
                line += f" -- {r.notes}"
            if r.witness is not None:
                line += f" witness: {r.as_dict()['witness']}"
            lines.append(line)
        lines.append(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
        out.emit("\n".join(lines))
    return 1 if failures else 0


def _cmd_sample(args: argparse.Namespace, out: _Output) -> int:
    rng = random.Random(args.seed)
    lines = []
    for _ in range(args.count):
        if args.model == "riffle":
            element = shuffles.riffle_sample(args.n, args.k, rng)
        elif args.model == "affine-a":
            element = shuffles.affine_a_2shuffle_sample(args.n, rng)
        else:
            element = shuffles.affine_c_shuffle_sample(args.n, args.k, rng)
        lines.append(element.to_text())
    if out.as_json:
        payload = {"model": args.model, "n": args.n, "seed": args.seed, "draws": lines}
        if args.model != "affine-a":
            payload["k"] = args.k
        out.emit_json(payload)
    else:
        out.emit("\n".join(lines))
    return 0


def _cmd_unimodal(args: argparse.Namespace, out: _Output) -> int:
    n = args.n
    if args.histogram:
        histogram = unimodal.gannon_histogram(n)
        rendered = []
        for key, count in sorted(histogram.items(), key=lambda item: repr(item[0])):
            shapes = ";".join(f"{shape!r}x{mult}" for shape, mult in key)
            rendered.append((shapes, count))
        if out.as_json:
            out.emit_json({"n": n, "histogram": {s: c for s, c in rendered}})
        elif out.as_csv:
            out.emit_csv(["shapes", "count"], [[s, str(c)] for s, c in rendered])
        else:
            out.emit("\n".join(f"{s}\t{c}" for s, c in rendered))
        return 0
    perms = unimodal.enumerate_unimodal(n)
    lines = [w.to_text() for w in sorted(perms, key=lambda w: w.images)]
    if out.as_json:
        out.emit_json({"n": n, "count": len(lines), "permutations": lines})
    else:
        out.emit("\n".join(lines))
    return 0


def _int_at_least(low: int):
    """argparse type for integers no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


UNIMODAL_MAX_N = 20
"""Largest ``unimodal --n``: 2^19 = 524,288 permutations.  Each step up
doubles the listing and the histogram's cost, so larger n is refused."""


def _unimodal_size(text: str) -> int:
    """argparse type for ``unimodal --n``: 1..``UNIMODAL_MAX_N``."""
    n = _int_at_least(1)(text)
    if n > UNIMODAL_MAX_N:
        raise argparse.ArgumentTypeError(
            f"at most {UNIMODAL_MAX_N} ({2 ** (UNIMODAL_MAX_N - 1):,} permutations), "
            f"got {n}, which would enumerate 2^{n - 1} = {2 ** (n - 1):,}")
    return n


_unimodal_size.__name__ = "int"


SAMPLE_MAX_COUNT = 100_000
SAMPLE_MAX_CARDS = 52 * SAMPLE_MAX_COUNT
"""Largest ``sample --count``, and largest ``--n`` times ``--count``.  A draw
is one ``randrange`` over a number of about n log2(k n) bits, so it takes
about 15-250 microseconds for n up to 52 at any k (70 at k = 2, 240 at
k = 10^9).  The draws are printed at the end, so 100,000 draws of 52 cards
take from a few seconds to about half a minute; more are refused before
anything is drawn."""


def _sample_count(text: str) -> int:
    """argparse type for ``sample --count``: 0..``SAMPLE_MAX_COUNT``."""
    count = _int_at_least(0)(text)
    if count > SAMPLE_MAX_COUNT:
        raise argparse.ArgumentTypeError(f"at most {SAMPLE_MAX_COUNT:,}, got {count:,}")
    return count


_sample_count.__name__ = "int"


def _parse_element(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """The ``measure --element`` text as a group element on ``--n`` symbols."""
    try:
        element = ELEMENT_TYPES[args.family].from_text(args.element)
        if element.n != args.n:
            raise ValueError(f"{args.element} acts on {element.n} symbols, but --n is {args.n}")
    except ValueError as exc:
        parser.error(f"argument --element: {exc}")
    return element


_NEGATIVE_ELEMENT = re.compile(r"-\d+(,-?\d+)*")


def _attach_element_values(argv: list[str]) -> list[str]:
    """``--element -1,2``, or an abbreviation such as ``--e -1,2``, as ``--element=-1,2``:
    argparse would read a separate value with a leading minus as an option."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--e") and "--element".startswith(out[-1])
                and _NEGATIVE_ELEMENT.fullmatch(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affine-shuffles",
        description="Exact affine shuffle measures, card-shuffling models, and identity checks",
    )
    formats = parser.add_mutually_exclusive_group()
    formats.add_argument("--json", action="store_true", help="emit JSON")
    formats.add_argument("--csv", action="store_true", help="emit CSV where applicable")
    parser.add_argument("--out", metavar="PATH", help="write output to a file")
    parser.add_argument("--decimal", type=_int_at_least(0), metavar="DIGITS",
                        help="render rationals as decimals with this many digits")
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="affine k-shuffle measure")
    # checks made after parsing report through the subcommand's own usage line
    measure.set_defaults(subparser=measure)
    measure.add_argument("--family", choices=("A", "C"), required=True)
    measure.add_argument("--n", type=_int_at_least(1), required=True)
    measure.add_argument("--k", type=_int_at_least(1), required=True)
    measure.add_argument("--element", help="one-line form, e.g. 3,1,-2,4,5")

    verify = sub.add_parser("verify", help="run verification checks")
    verify.add_argument("check", choices=(*harness.CHECKS, "all"),
                        type=lambda name: harness.CHECK_ALIASES.get(name, name),
                        help="a registered check, or all; short forms: "
                        + ", ".join(harness.CHECK_ALIASES))
    verify.add_argument("--profile", choices=harness.PROFILES, default="quick")

    sample = sub.add_parser("sample", help="draw from a shuffle model")
    sample.set_defaults(subparser=sample)
    sample.add_argument("--model", choices=("riffle", "affine-a", "affine-c"),
                        required=True)
    sample.add_argument("--n", type=_int_at_least(1), required=True)
    sample.add_argument("--k", type=_int_at_least(1),
                        help="number of piles for riffle and affine-c (default 2); "
                        "affine-a is the fixed two-pile cut and takes none")
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--count", type=_sample_count, default=1,
                        help=f"number of draws, at most {SAMPLE_MAX_COUNT:,} (default 1)")

    uni = sub.add_parser("unimodal", help="unimodal permutations")
    uni.add_argument("--n", type=_unimodal_size, required=True,
                     help=f"at most {UNIMODAL_MAX_N}")
    uni.add_argument("--histogram", action="store_true",
                     help="group by multiset of cycle shapes")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_element_values(sys.argv[1:] if argv is None else argv))
    out = _Output(args)
    if args.command == "measure":
        if args.element is not None:
            args.element = _parse_element(args.subparser, args)
        # The order is computed up to n = 20 only (20! > 10!), so that a huge
        # --n is refused without a huge factorial.
        elif (order := GroupKind(args.family, min(args.n, 20)).order()) > GROUP_MAX_ORDER:
            more = "more than " if args.n > 20 else ""
            args.subparser.error(
                f"argument --n: the {args.family} measure at n={args.n} would enumerate "
                f"{more}{order:,} elements; at most {GROUP_MAX_ORDER:,} without --element")
        return _cmd_measure(args, out)
    if args.command == "verify":
        return _cmd_verify(args, out)
    if args.command == "sample":
        if args.model == "affine-a" and args.k is not None:
            args.subparser.error("argument --k: not allowed with --model affine-a, "
                         "the fixed two-pile cut")
        if args.k is None:
            args.k = 2
        if args.n * args.count > SAMPLE_MAX_CARDS:
            args.subparser.error(
                f"argument --n: n times --count is at most {SAMPLE_MAX_CARDS:,} cards, "
                f"got {args.n:,} x {args.count:,} = {args.n * args.count:,}")
        return _cmd_sample(args, out)
    if args.command == "unimodal":
        return _cmd_unimodal(args, out)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
