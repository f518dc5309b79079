"""Verification orchestration: reports, profiles, fault injection."""

import hashlib
import json

import pytest

from affine_shuffles.harness import (
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


def test_fault_injection_produces_witness():
    report = verify_dmp("A", 3, 2, fault_injection=True)
    assert report.status == "fail"
    assert report.witness is not None
    assert "class" in report.witness
    # still JSON-serializable with rationals as strings
    payload = report.as_dict()
    json.dumps(payload)
    assert payload["status"] == "fail"


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
    # every report, witnesses and notes included, is byte-identical to the
    # pinned battery; a change that alters any report must re-pin on purpose
    dumped = [{k: v for k, v in r.as_dict().items() if k != "elapsed"} for r in reports]
    digest = hashlib.sha256(json.dumps(dumped, sort_keys=True).encode()).hexdigest()
    assert (len(reports), digest[:16]) == (138, "b236701b0c35ea56")


def test_verify_all_rejects_unknown_profile():
    with pytest.raises(ValueError):
        verify_all("gigantic")


def test_run_checks_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown check 'nope'.*'dmp'"):
        run_checks(["dmp", "nope"])


def test_profiles_exist():
    assert set(PROFILES) == {"quick", "full"}
