"""Command-line interface behavior."""

import json

import pytest

from affine_shuffles.cli import main
from affine_shuffles.harness import CHECKS


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_measure_json(capsys):
    code, out = run(capsys, "--json", "measure", "--family", "A", "--n", "3", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["masses"]["1,2,3"] == "1/4"
    assert payload["masses"]["3,2,1"] == "1/4"
    assert len(payload["masses"]) == 4


def test_measure_single_element(capsys):
    code, out = run(
        capsys, "measure", "--family", "C", "--n", "2", "--k", "3",
        "--element", "1,2",
    )
    assert code == 0
    assert out.strip() == "1/3"


def test_measure_element_with_leading_minus(capsys):
    # argparse alone would read "-1,2" as an option and exit 2, also after an
    # abbreviated --element
    for option in ("--element", "--elem", "--e"):
        code, out = run(
            capsys, "measure", "--family", "C", "--n", "2", "--k", "3",
            option, "-1,2",
        )
        assert code == 0
        assert out.strip() == "1/9"


def test_measure_decimal_rendering(capsys):
    # the affine 2-shuffle on S_2 is uniform: both elements carry 1/2
    code, out = run(
        capsys, "--decimal", "3", "measure", "--family", "A", "--n", "2", "--k", "2",
        "--element", "2,1",
    )
    assert code == 0
    assert out.strip() == "0.500"


def test_measure_csv(capsys):
    code, out = run(capsys, "--csv", "measure", "--family", "A", "--n", "2", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "element,mass"
    assert "1,2".join("") in lines[1]


def test_verify_reciprocity_text(capsys):
    code, out = run(capsys, "verify", "reciprocity", "--profile", "quick")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_tv_json(capsys):
    code, out = run(capsys, "--json", "verify", "tv")
    assert code == 0
    reports = json.loads(out)
    assert all(r["status"] == "pass" for r in reports)
    assert all(r["check"] == "tv_equality" for r in reports)


def test_verify_csv(capsys):
    code, out = run(capsys, "--csv", "verify", "tv")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("check,parameters,status")


def test_sample_deterministic(capsys):
    code1, out1 = run(
        capsys, "sample", "--model", "affine-c", "--n", "3", "--k", "2",
        "--seed", "42", "--count", "5",
    )
    code2, out2 = run(
        capsys, "sample", "--model", "affine-c", "--n", "3", "--k", "2",
        "--seed", "42", "--count", "5",
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 5


def test_sample_models(capsys):
    for model, piles in (("riffle", ["--k", "2"]), ("affine-a", []), ("affine-c", ["--k", "2"])):
        code, out = run(
            capsys, "sample", "--model", model, "--n", "4", *piles,
            "--seed", "1", "--count", "3",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3


def test_unimodal_listing(capsys):
    code, out = run(capsys, "unimodal", "--n", "3")
    assert code == 0
    assert set(out.strip().splitlines()) == {"1,2,3", "1,3,2", "2,3,1", "3,2,1"}


def test_unimodal_histogram_csv(capsys):
    code, out = run(capsys, "--csv", "unimodal", "--n", "3", "--histogram")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "shapes,count"
    assert len(lines) == 4  # three classes


def test_out_file(tmp_path, capsys):
    target = tmp_path / "masses.json"
    code, _ = run(
        capsys, "--json", "--out", str(target),
        "measure", "--family", "A", "--n", "2", "--k", "2",
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["masses"]["1,2"] == "1/2"


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--family", "Z", "--n", "2", "--k", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, usage", [
    pytest.param(["measure", "--family", "A", "--n", "3", "--k", "2", "--element", "1,2,3,4"],
                 "measure", id="element-not-on-n-symbols"),
    pytest.param(["measure", "--family", "A", "--n", "3", "--k", "2", "--element", "1,2,x"],
                 "measure", id="element-not-integer"),
    pytest.param(["measure", "--family", "A", "--n", "3", "--k", "0"], "measure",
                 id="measure-k-0"),
    pytest.param(["measure", "--family", "A", "--n", "0", "--k", "2"], "measure",
                 id="measure-n-0"),
    pytest.param(["--decimal", "-1", "measure", "--family", "A", "--n", "2", "--k", "2"],
                 "[-h]", id="negative-decimal"),
    pytest.param(["unimodal", "--n", "0"], "unimodal", id="unimodal-n-0"),
    pytest.param(["sample", "--model", "affine-c", "--n", "3", "--seed", "1", "--count", "-5"],
                 "sample", id="negative-count"),
    pytest.param(["sample", "--model", "riffle", "--n", "3", "--k", "0", "--seed", "1"],
                 "sample", id="sample-k-0"),
    pytest.param(["sample", "--model", "affine-a", "--n", "3", "--k", "7", "--seed", "1"],
                 "sample", id="affine-a-with-k"),
    pytest.param(["--json", "--csv", "measure", "--family", "A", "--n", "2", "--k", "2"],
                 "[-h]", id="json-and-csv"),
])
def test_rejected_input_exits_2(capsys, argv, usage):
    # an error in a subcommand's options is shown with that subcommand's usage line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: affine-shuffles {usage}")
    assert "error:" in captured.err


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_verify_every_registered_check(capsys, name):
    # every registry key is reachable by name and labels each of its reports with that key
    code, out = run(capsys, "--json", "verify", name, "--profile", "quick")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == len(CHECKS[name][1]["quick"])
    assert {r["check"] for r in reports} == {name}
