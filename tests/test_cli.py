"""End-to-end tests of the command-line interface: golden outputs for every
subcommand, the documented exit codes, and byte-for-byte determinism."""

import json

import pytest
from click.testing import CliRunner

from extbar import InternalAssertionError, SuiteResult
from extbar.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


# ----------------------------------------------------------------------
# words
# ----------------------------------------------------------------------


def test_words_listing(runner):
    result = runner.invoke(main, ["words", "--p", "3", "--height", "3", "--max-degree", "20"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "# word\tdegree\ttwisting\tweight",
        "sss\t3\t0\t1",
        "sgss\t7\t1\t3",
        "fss\t8\t1\t3",
        "sggss\t19\t2\t9",
        "fgss\t20\t2\t9",
    ]


def test_words_pairs_listing(runner):
    result = runner.invoke(
        main,
        ["words", "--p", "3", "--height", "3", "--max-degree", "20", "--pairs"],
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "# gamma_word\tphi_word\tdegree\ttwisting\tweight",
        "sgss\tfss\t7\t1\t3",
        "sggss\tfgss\t19\t2\t9",
    ]


def test_words_rejects_composite_p(runner):
    result = runner.invoke(main, ["words", "--p", "4", "--height", "2", "--max-degree", "9"])
    assert result.exit_code == 2
    assert "--p must be prime, got 4" in result.output


# ----------------------------------------------------------------------
# bar-homology
# ----------------------------------------------------------------------


def test_bar_homology_single_weight4_text(runner):
    result = runner.invoke(main, ["bar-homology", "--ring", "Z", "--n", "1", "--weight", "4"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "H_9 (weight 4) = Z/2",
        "H_10 (weight 4) = Z/3",
        "H_11 (weight 4) = Z/2",
    ]


def test_bar_homology_double_weight4_json(runner):
    result = runner.invoke(
        main, ["bar-homology", "--ring", "Z", "--n", "2", "--weight", "4", "--json"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "schema": 1,
        "ring": "Z",
        "n": 2,
        "weight": 4,
        "m": 1,
        "groups": [
            {"degree": 10, "free_rank": 0, "torsion": [2]},
            {"degree": 12, "free_rank": 0, "torsion": [12]},
            {"degree": 13, "free_rank": 0, "torsion": [2]},
            {"degree": 14, "free_rank": 0, "torsion": [2]},
            {"degree": 16, "free_rank": 1, "torsion": []},
        ],
    }


def test_bar_homology_integral_csv(runner):
    result = runner.invoke(
        main, ["bar-homology", "--ring", "Z", "--n", "1", "--weight", "4", "--csv"]
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "degree,free_rank,torsion",
        "9,0,2",
        "10,0,3",
        "11,0,2",
    ]


def test_bar_homology_field_text_and_trivial(runner):
    result = runner.invoke(main, ["bar-homology", "--ring", "Fp:2", "--weight", "1"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["H_3 (weight 1) = dim 1"]

    result = runner.invoke(main, ["bar-homology", "--ring", "Fp:5", "--weight", "2"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["weight 2: trivial"]


def test_bar_homology_usage_errors(runner):
    result = runner.invoke(
        main, ["bar-homology", "--weight", "2", "--json", "--csv"]
    )
    assert result.exit_code == 2
    assert "choose at most one of --json/--csv" in result.output

    result = runner.invoke(main, ["bar-homology", "--weight", "-1"])
    assert result.exit_code == 2

    result = runner.invoke(main, ["bar-homology", "--ring", "Fp:4", "--weight", "2"])
    assert result.exit_code == 2
    assert "4 is not prime" in result.output


# ----------------------------------------------------------------------
# ext-table
# ----------------------------------------------------------------------


def test_ext_table_integral_csv(runner):
    result = runner.invoke(
        main,
        ["ext-table", "--source", "S", "--target", "Gamma", "--ring", "Z", "--csv"],
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "degree,weight,free_rank,torsion",
        "0,0,1,",
        "0,1,1,",
        "0,2,1,",
        "0,3,1,",
        "0,4,1,",
        "2,2,0,2",
        "2,3,0,2",
        "2,4,0,2",
        "3,4,0,2",
        "4,3,0,3",
        "4,4,0,12",
        "6,4,0,2",
    ]


def test_ext_table_integral_predict_agrees_with_bar(runner):
    args = ["ext-table", "--source", "S", "--target", "Lambda", "--ring", "Z", "--csv"]
    via_bar = runner.invoke(main, args + ["--method", "bar"])
    via_predict = runner.invoke(main, args + ["--method", "predict"])
    assert via_bar.exit_code == 0 and via_predict.exit_code == 0
    assert via_bar.output == via_predict.output


def test_ext_table_field_text(runner):
    result = runner.invoke(
        main,
        [
            "ext-table",
            "--source",
            "S",
            "--target",
            "Gamma",
            "--ring",
            "Fp:3",
            "--max-weight",
            "3",
        ],
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "Ext^0 (weight 0) = dim 1",
        "Ext^0 (weight 1) = dim 1",
        "Ext^0 (weight 2) = dim 1",
        "Ext^0 (weight 3) = dim 1",
        "Ext^3 (weight 3) = dim 1",
        "Ext^4 (weight 3) = dim 1",
    ]


def test_ext_table_twisted_json(runner):
    result = runner.invoke(
        main,
        [
            "ext-table",
            "--source",
            "Gamma",
            "--target",
            "Lambda",
            "--ring",
            "Fp:2",
            "--s",
            "1",
            "--t",
            "1",
            "--max-weight",
            "8",
            "--json",
        ],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["source"] == "Gamma"
    assert payload["s"] == 1 and payload["t"] == 1
    assert payload["entries"] == [
        {"degree": 0, "weight": 0, "dimension": 1},
        {"degree": 1, "weight": 4, "dimension": 1},
        {"degree": 5, "weight": 4, "dimension": 1},
        {"degree": 6, "weight": 8, "dimension": 1},
    ]


def test_ext_table_field_bar_route_matches_predict(runner):
    args = [
        "ext-table",
        "--source",
        "S",
        "--target",
        "Lambda",
        "--ring",
        "Fp:2",
        "--csv",
    ]
    via_bar = runner.invoke(main, args + ["--method", "bar"])
    via_predict = runner.invoke(main, args + ["--method", "predict"])
    assert via_bar.exit_code == 0 and via_predict.exit_code == 0
    assert via_bar.output == via_predict.output


def test_ext_table_usage_errors(runner):
    base = ["ext-table", "--source", "S", "--target", "Lambda"]
    result = runner.invoke(main, base + ["--ring", "Z", "--s", "1"])
    assert result.exit_code == 2
    assert "twisted tables over Z are not supported" in result.output

    result = runner.invoke(
        main, ["ext-table", "--source", "Lambda", "--target", "Gamma", "--ring", "Z"]
    )
    assert result.exit_code == 2
    assert "source S and target Lambda/Gamma" in result.output

    result = runner.invoke(main, base + ["--method", "bar", "--s", "1"])
    assert result.exit_code == 2
    assert "untwisted symmetric-source tables" in result.output

    result = runner.invoke(main, base + ["--json", "--csv"])
    assert result.exit_code == 2


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_passing_suites(runner):
    result = runner.invoke(
        main, ["verify", "--suite", "cartan-field", "--max-weight", "4"]
    )
    assert result.exit_code == 0
    assert result.output.startswith("cartan-field: PASS (")

    result = runner.invoke(
        main, ["verify", "--suite", "cartan-integral", "--max-weight", "4"]
    )
    assert result.exit_code == 0
    assert result.output.startswith("cartan-integral: PASS (")


def test_verify_rejects_unknown_suite_and_bad_prime(runner):
    result = runner.invoke(main, ["verify", "--suite", "bogus"])
    assert result.exit_code == 2

    result = runner.invoke(main, ["verify", "--suite", "tables", "--p", "6"])
    assert result.exit_code == 2
    assert "--p must be prime, got 6" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["bar-homology", "--ring", "Fp:4294967311", "--n", "1", "--weight", "6"],
        ["ext-table", "--source", "S", "--target", "Gamma", "--ring", "Fp:3037000507"],
        ["verify", "--suite", "cartan-field", "--p", "3037000507"],
    ],
)
def test_primes_past_the_int64_bound_are_usage_errors(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "3037000493" in result.output


def test_verify_failure_exits_one(runner, monkeypatch):
    fake = SuiteResult(
        suite="tables",
        passed=False,
        checks=3,
        mismatch="at (0, 0): computed 1, predicted 2",
    )
    monkeypatch.setattr("extbar.cli.run_suite", lambda *a, **k: fake)
    result = runner.invoke(main, ["verify", "--suite", "tables"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "tables: FAIL (at (0, 0): computed 1, predicted 2)"
    ]


def test_internal_assertion_exits_three(runner, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalAssertionError("boundary square check failed")

    monkeypatch.setattr("extbar.cli.run_suite", boom)
    result = runner.invoke(main, ["verify", "--suite", "tables"])
    assert result.exit_code == 3
    assert "internal assertion failed: boundary square check failed" in result.stderr


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


def test_identical_invocations_are_byte_identical(runner):
    args = ["bar-homology", "--ring", "Z", "--n", "1", "--weight", "4", "--json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
