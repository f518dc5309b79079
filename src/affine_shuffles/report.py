"""Structured pass/fail reports, and the decorator that makes them.

A check is a function decorated with ``check(name)``: it returns only its
outcome, and the decorator names, times and records the parameters of the
``VerificationReport`` built from it.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check.

    A failing report always carries a ``witness`` payload describing the first
    counterexample found; a passing report may carry ``notes`` recording
    conventions that the check pinned down (e.g. which orientation of a
    model/measure identity matched).
    """

    check_name: str
    parameters: dict[str, Any]
    status: str
    witness: dict[str, Any] | None
    elapsed: float
    notes: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail"):
            raise ValueError(f"status must be 'pass' or 'fail', got {self.status!r}")
        if self.status == "fail" and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form; exact rationals rendered as 'a/b' strings."""
        return {
            "check": self.check_name,
            "parameters": _jsonify(self.parameters),
            "status": self.status,
            "witness": _jsonify(self.witness),
            "elapsed": self.elapsed,
            "notes": self.notes,
        }


def _jsonify(value: Any) -> Any:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def check(name: str) -> Callable[[Callable], Callable[..., VerificationReport]]:
    """Turn a function that decides one identity into the check ``name``.

    The function returns None when the identity holds, its witness dict when
    it fails, or ``(witness, notes)``.  The decorated function returns the
    timed report, whose parameters are the call's arguments bound to the
    function's signature with defaults applied, so
    ``f(**report.parameters)`` runs the same check again.
    """

    def decorate(function: Callable) -> Callable[..., VerificationReport]:
        signature = inspect.signature(function)

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> VerificationReport:
            start = time.perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            outcome = function(*args, **kwargs)
            witness, notes = outcome if isinstance(outcome, tuple) else (outcome, "")
            return VerificationReport(
                check_name=name,
                parameters=dict(bound.arguments),
                status="pass" if witness is None else "fail",
                witness=witness,
                elapsed=time.perf_counter() - start,
                notes=notes,
            )

        wrapper.check_name = name
        return wrapper

    return decorate


def first_difference(left: Mapping, right: Mapping, key: Callable | None = None) -> Any:
    """The first key, in ``sorted(..., key=key)`` order, whose values differ
    between the two maps, a missing key counting as 0; None when they agree.
    Checks put this key in their witness, so the order fixes the witness."""
    for k in sorted(set(left) | set(right), key=key):
        if left.get(k, 0) != right.get(k, 0):
            return k
    return None
