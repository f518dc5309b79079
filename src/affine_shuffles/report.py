"""Structured pass/fail reports produced by the verification checks."""

from __future__ import annotations

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


class CheckTimer:
    """Tiny helper so every check reports a wall-clock duration."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def report(
        self,
        name: str,
        parameters: dict[str, Any],
        witness: dict[str, Any] | None,
        notes: str = "",
    ) -> VerificationReport:
        status = "pass" if witness is None else "fail"
        return VerificationReport(
            check_name=name,
            parameters=parameters,
            status=status,
            witness=witness,
            elapsed=time.perf_counter() - self.start,
            notes=notes,
        )


def first_difference(left: Mapping, right: Mapping, key: Callable | None = None) -> Any:
    """The first key, in ``sorted(..., key=key)`` order, whose values differ
    between the two maps, a missing key counting as 0; None when they agree.
    Checks put this key in their witness, so the order fixes the witness."""
    for k in sorted(set(left) | set(right), key=key):
        if left.get(k, 0) != right.get(k, 0):
            return k
    return None
