"""Command-line interface behavior."""

import itertools
import json

import pytest

from affine_shuffles import closed_forms, harness, numth, perm, shuffles, unimodal
from affine_shuffles.cli import SAMPLE_MAX_CARDS, SAMPLE_MAX_COUNT, main
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


def test_measure_single_element_at_large_k(capsys):
    code, out = run(
        capsys, "measure", "--family", "A", "--n", "8", "--k", "1000",
        "--element", "2,1,3,4,5,6,7,8",
    )
    assert code == 0
    assert out.strip() == "50301098211469/2000000000000000000"


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


# `sample ... --n 4 --count 20 --seed 5` (with --k 3 where the model takes
# one); each draw is one randrange over the model's plan.
PINNED_SAMPLES = {
    "riffle": (
        "2,4,1,3", "3,1,2,4", "4,2,1,3", "1,3,4,2", "1,4,2,3", "4,1,2,3", "2,3,4,1",
        "4,1,3,2", "2,4,1,3", "1,2,3,4", "4,3,1,2", "2,1,4,3", "1,2,3,4", "1,4,2,3",
        "3,1,2,4", "2,4,1,3", "3,4,1,2", "2,3,1,4", "1,4,2,3", "2,1,3,4",
    ),
    "affine-a": (
        "3,4,1,2", "2,4,3,1", "4,1,2,3", "4,1,2,3", "1,2,3,4", "4,1,2,3", "2,4,1,3",
        "3,4,1,2", "3,4,1,2", "3,4,1,2", "3,4,1,2", "2,4,1,3", "2,3,4,1", "1,2,3,4",
        "4,2,3,1", "3,4,1,2", "1,2,3,4", "3,4,1,2", "2,3,4,1", "2,4,1,3",
    ),
    "affine-c": (
        "3,1,4,2", "-4,-3,1,-2", "3,-2,4,1", "1,4,2,-3", "1,3,4,2", "-4,-3,-2,1",
        "4,-3,-2,-1", "-3,4,-2,1", "-3,1,4,2", "1,-4,-3,-2", "3,4,-2,1", "-3,1,4,-2",
        "1,-2,3,4", "1,3,4,2", "2,3,1,4", "3,-2,4,-1", "3,4,-2,-1", "3,1,2,4",
        "1,-3,4,2", "-2,1,3,4",
    ),
}


@pytest.mark.parametrize("model", sorted(PINNED_SAMPLES))
def test_sample_stream_is_pinned(capsys, model):
    piles = [] if model == "affine-a" else ["--k", "3"]
    code, out = run(
        capsys, "sample", "--model", model, "--n", "4", *piles, "--count", "20", "--seed", "5",
    )
    assert code == 0
    assert tuple(out.split()) == PINNED_SAMPLES[model]


def test_sample_count_zero_prints_nothing(tmp_path, capsys):
    # no draws is no lines, not one empty line a line reader would count
    code, out = run(capsys, "sample", "--model", "riffle", "--n", "3", "--seed", "1", "--count", "0")
    assert code == 0
    assert out == ""
    target = tmp_path / "draws.txt"
    code, _ = run(capsys, "--out", str(target),
                  "sample", "--model", "riffle", "--n", "3", "--seed", "1", "--count", "0")
    assert code == 0
    assert target.read_text() == ""


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


@pytest.mark.parametrize("n, count, options", [
    (21, "1,048,576", []),
    (40, "549,755,813,888", ["--histogram"]),
])
def test_unimodal_refuses_n_past_the_limit(capsys, monkeypatch, n, count, options):
    # refused while parsing, before any enumeration starts
    monkeypatch.setattr(unimodal, "enumerate_unimodal", None)
    monkeypatch.setattr(unimodal, "gannon_histogram", None)
    with pytest.raises(SystemExit) as exc:
        main(["unimodal", "--n", str(n), *options])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: affine-shuffles unimodal")
    assert captured.err.endswith(
        f"error: argument --n: at most 20 (524,288 permutations), got {n}, "
        f"which would enumerate 2^{n - 1} = {count}\n")


class Enumerated(Exception):
    """Raised by a patched class index: the command reached enumeration."""


def _enumerated(*args):
    raise Enumerated


@pytest.mark.parametrize("family, n, order", [
    pytest.param("A", 11, "39,916,800", id="A-11"),
    pytest.param("C", 8, "10,321,920", id="C-8"),
    # past n = 20 the order is only bounded, so no huge factorial is computed
    pytest.param("A", 10**9, "more than 2,432,902,008,176,640,000", id="A-10**9"),
])
def test_measure_refuses_groups_past_the_order_limit(capsys, monkeypatch, family, n, order):
    # refused before any enumeration starts
    monkeypatch.setattr(perm, "descent_classes", _enumerated)
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--family", family, "--n", str(n), "--k", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: affine-shuffles measure")
    assert captured.err.endswith(
        f"error: argument --n: the {family} measure at n={n} would enumerate {order} "
        "elements; at most 3,628,800 without --element\n")


@pytest.mark.parametrize("family, n", [("A", 10), ("C", 7)])
def test_measure_enumerates_groups_up_to_the_order_limit(monkeypatch, family, n):
    monkeypatch.setattr(perm, "descent_classes", _enumerated)
    with pytest.raises(Enumerated):
        main(["measure", "--family", family, "--n", str(n), "--k", "2"])


def test_measure_element_past_the_order_limit(capsys, monkeypatch):
    # one coefficient enumerates nothing, so --element has no order limit
    monkeypatch.setattr(perm, "descent_classes", _enumerated)
    code, out = run(capsys, "measure", "--family", "A", "--n", "12", "--k", "2",
                    "--element", ",".join(map(str, range(1, 13))))
    assert code == 0
    assert out.strip() == "1/2048"


def _partition_count_forbidden(*args):
    raise AssertionError("method 1's partition count was called")


@pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
def test_measure_element_gives_method_1_value(capsys, k):
    for w in perm.GroupKind("A", 4).elements():
        code, out = run(capsys, "measure", "--family", "A", "--n", "4", "--k", str(k),
                        "--element", w.to_text())
        assert code == 0
        want = closed_forms.x_k_type_a(w, k, 1)
        assert out.strip() == f"{want.numerator}/{want.denominator}", (w, k)


def test_measure_element_at_huge_k(capsys, monkeypatch):
    # the CLI reads the von Sterneck route; method 1's residue table has a
    # column per unit of k and would not finish at this k
    monkeypatch.setattr(closed_forms, "bounded_partition_count", _partition_count_forbidden)
    code, out = run(capsys, "measure", "--family", "A", "--n", "3",
                    "--k", str(10**20), "--element", "2,1,3")
    assert code == 0
    # (k - 1) / 6k, as method 1 gives at k = 4, 7, 10, 13 (k = 1 mod 3)
    assert out.strip() == "33333333333333333333/200000000000000000000"


def test_whole_type_a_measure_at_huge_k(capsys, monkeypatch):
    # the whole measure reads the von Sterneck route too; method 1's box
    # table grows linearly in k and would not finish at this k
    def box_table_forbidden(*args):
        raise AssertionError("method 1's box table was built")

    monkeypatch.setattr(numth, "_box_residues", box_table_forbidden)
    code, out = run(capsys, "measure", "--family", "A", "--n", "3", "--k", str(10**20))
    assert code == 0
    assert len(out.splitlines()) == 6


@pytest.mark.parametrize("options", [[], ["--json"], ["--csv"]], ids=["text", "json", "csv"])
def test_whole_type_a_measure_gives_method_1_output(capsys, monkeypatch, options):
    def measure(n, k):
        return run(capsys, *options, "measure", "--family", "A", "--n", str(n), "--k", str(k))

    sizes = list(itertools.product(range(1, 6), range(1, 7)))
    outputs = [measure(n, k) for n, k in sizes]
    method_1 = closed_forms.x_k_measure_type_a
    monkeypatch.setattr(closed_forms, "x_k_measure_type_a",
                        lambda n, k, method: method_1(n, k, 1))
    for (n, k), output in zip(sizes, outputs):
        assert output[0] == 0
        assert measure(n, k) == output, (n, k)


def _drawn(*args):
    raise AssertionError("a draw was made")


@pytest.mark.parametrize("model", ["riffle", "affine-a", "affine-c"])
def test_sample_refuses_count_past_the_limit(capsys, monkeypatch, model):
    # refused while parsing, before any draw
    for name in ("riffle_sample", "affine_a_2shuffle_sample", "affine_c_shuffle_sample"):
        monkeypatch.setattr(shuffles, name, _drawn)
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--model", model, "--n", "3", "--seed", "1",
              "--count", str(SAMPLE_MAX_COUNT + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: affine-shuffles sample")
    assert captured.err.endswith("error: argument --count: at most 100,000, got 100,001\n")


@pytest.mark.parametrize("model", ["riffle", "affine-a", "affine-c"])
@pytest.mark.parametrize("n, count", [(53, SAMPLE_MAX_COUNT), (SAMPLE_MAX_CARDS + 1, 1)],
                         ids=["53-cards", "one-draw"])
def test_sample_refuses_cards_past_the_limit(capsys, monkeypatch, model, n, count):
    for name in ("riffle_sample", "affine_a_2shuffle_sample", "affine_c_shuffle_sample"):
        monkeypatch.setattr(shuffles, name, _drawn)
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--model", model, "--n", str(n), "--seed", "1", "--count", str(count)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: affine-shuffles sample")
    assert captured.err.endswith(
        f"error: argument --n: n times --count is at most 5,200,000 cards, "
        f"got {n:,} x {count:,} = {n * count:,}\n")


def test_sample_draws_up_to_the_card_limit(capsys, monkeypatch):
    # 52 cards at the count limit, and the largest deck drawn once
    one = perm.Permutation((1,))
    monkeypatch.setattr(shuffles, "affine_c_shuffle_sample", lambda n, k, rng: one)
    for n, count in ((52, SAMPLE_MAX_COUNT), (SAMPLE_MAX_CARDS, 1)):
        code, out = run(capsys, "sample", "--model", "affine-c", "--n", str(n), "--seed", "1",
                        "--count", str(count))
        assert code == 0
        assert out == "1\n" * count


def test_sample_draws_up_to_the_count_limit(capsys, monkeypatch):
    # a stand-in draw keeps the full count cheap
    one = perm.Permutation((1,))
    monkeypatch.setattr(shuffles, "riffle_sample", lambda n, k, rng: one)
    code, out = run(capsys, "sample", "--model", "riffle", "--n", "1", "--seed", "1",
                    "--count", str(SAMPLE_MAX_COUNT))
    assert code == 0
    assert out == "1\n" * SAMPLE_MAX_COUNT


def test_out_file(tmp_path, capsys):
    target = tmp_path / "masses.json"
    code, _ = run(
        capsys, "--json", "--out", str(target),
        "measure", "--family", "A", "--n", "2", "--k", "2",
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["masses"]["1,2"] == "1/2"


@pytest.mark.parametrize("command", [
    ["measure", "--family", "A", "--n", "2", "--k", "2"],
    ["verify", "eta_worked_example"],
    ["sample", "--model", "riffle", "--n", "3", "--seed", "1"],
    ["unimodal", "--n", "3"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, where):
    # exit 1 would read as a failed check
    path = str(tmp_path / "absent" / "x" if where == "missing-directory" else tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--out", path, *command])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"affine-shuffles: error: cannot write --out {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_refused_before_the_command_runs(tmp_path, capsys, monkeypatch, where):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the checks ran before --out was refused")

    monkeypatch.setattr(harness, "run_checks", must_not_run)
    path = str(tmp_path / "absent" / "x" if where == "missing-directory" else tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--out", path, "verify", "all", "--profile", "full"])
    assert exc.value.code == 2
    reason = "No such file or directory" if where == "missing-directory" else "Is a directory"
    assert capsys.readouterr().err == f"affine-shuffles: error: cannot write --out {path}: {reason}\n"
    assert not (tmp_path / "absent").exists()


def test_out_path_that_goes_away_while_the_command_runs_exits_2(tmp_path, capsys, monkeypatch):
    run_checks = harness.run_checks

    def remove_directory_first(*args):
        (tmp_path / "sub").rmdir()
        return run_checks(*args)

    (tmp_path / "sub").mkdir()
    monkeypatch.setattr(harness, "run_checks", remove_directory_first)
    path = str(tmp_path / "sub" / "x")
    with pytest.raises(SystemExit) as exc:
        main(["--out", path, "verify", "eta_worked_example"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"affine-shuffles: error: cannot write --out {path}: No such file or directory\n")


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
    # refused by the CLI's order pre-check, before the class index's own limit is reached
    pytest.param(["measure", "--family", "A", "--n", "130", "--k", "2"], "measure",
                 id="measure-A-n-past-the-class-index"),
    pytest.param(["measure", "--family", "C", "--n", "128", "--k", "2"], "measure",
                 id="measure-C-n-past-the-class-index"),
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
