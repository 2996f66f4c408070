"""End-to-end tests of the command-line interface: golden outputs for every
subcommand, the documented exit codes, byte-for-byte determinism, and what a
fresh interpreter loads to run them."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import extbar
from extbar import InternalAssertionError, SuiteResult, run_suite
from extbar.cli import main

#: The directory holding the ``extbar`` package under test, for fresh
#: interpreters started by the tests below.
SRC = str(Path(extbar.__file__).resolve().parents[1])


def run_fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this ``extbar``; stdout as bytes."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=120,
    )


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


def test_words_rejects_primes_past_the_bound(runner):
    result = runner.invoke(
        main,
        ["words", "--p", "1000000000000000000000007", "--height", "1", "--max-degree", "5"],
    )
    assert result.exit_code == 2
    assert "--p must be at most 3037000493" in result.output


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


@pytest.mark.parametrize("suite", ["exponential", "koszul", "twist-consistency", "tables"])
def test_verify_rejects_m_for_suites_that_ignore_it(runner, suite):
    result = runner.invoke(main, ["verify", "--suite", suite, "--m", "2"])
    assert result.exit_code == 2
    assert "--m is taken only by the cartan-field and cartan-integral suites" in result.output
    with pytest.raises(ValueError, match="m = 1 only"):
        run_suite(suite, m=2)


def test_verify_takes_m_for_the_cartan_suites(runner):
    for suite in ("cartan-field", "cartan-integral"):
        result = runner.invoke(
            main, ["verify", "--suite", suite, "--m", "2", "--max-weight", "3"]
        )
        assert result.exit_code == 0, result.output
        assert result.output.startswith(f"{suite}: PASS (")


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


@pytest.mark.parametrize(
    "args",
    [
        ["--ring", "Fp:1000003", "--s", "2", "--max-weight", "4"],
        ["--ring", "Fp:3037000493", "--s", "1", "--t", "1"],
    ],
)
def test_twisted_tables_at_large_primes_finish_fast(runner, args):
    # Every twisted family weighs at least p**(s+t), past the truncation, so
    # only the unit is left; no family may be built just to be dropped.
    start = time.perf_counter()
    result = runner.invoke(
        main, ["ext-table", "--source", "Gamma", "--target", "Lambda", *args]
    )
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert result.output.splitlines() == ["Ext^0 (weight 0) = dim 1"]
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


@pytest.mark.parametrize("p", ["1000003", "3037000493"])
def test_twist_consistency_at_large_primes_finishes_fast(runner, p):
    # Expanding by even offsets makes p**s copies of each generator; the
    # suite must cut the generators the expansion would push past the cap
    # before it builds them.
    start = time.perf_counter()
    result = runner.invoke(
        main,
        ["verify", "--suite", "twist-consistency", "--p", p, "--max-s", "1", "--max-t", "0"],
    )
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert result.output.startswith("twist-consistency: PASS")
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--ring", "Z"], ""),
        (["--ring", "Fp:3"], ""),
        (["--ring", "Z", "--csv"], "degree,weight,free_rank,torsion\n"),
        (["--ring", "Fp:3", "--csv"], "degree,weight,dimension\n"),
    ],
)
def test_ext_table_cut_to_nothing_prints_no_rows(runner, args, expected):
    result = runner.invoke(
        main,
        ["ext-table", "--source", "S", "--target", "Gamma", "--max-codegree", "-1", *args],
    )
    assert result.exit_code == 0
    assert result.output == expected


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


# ----------------------------------------------------------------------
# start-up: python -m extbar, and no numpy anywhere
# ----------------------------------------------------------------------


def test_python_dash_m_runs_the_cli(runner):
    args = ["ext-table", "--source", "S", "--target", "Gamma", "--ring", "Fp:2"]
    args += ["--max-weight", "6"]
    proc = run_fresh_python("-m", "extbar", *args)
    result = runner.invoke(main, args)
    assert proc.returncode == result.exit_code == 0, proc.stderr
    assert proc.stdout == result.stdout_bytes
    assert proc.stdout.startswith(b"Ext^0 (weight 0) = dim 1\n")


GUARDED_COMMANDS = [
    ["ext-table", "--source", "Gamma", "--target", "Lambda", "--ring", "Fp:3", "--s", "1"],
    ["ext-table", "--source", "S", "--target", "Gamma", "--ring", "Z", "--method", "bar"],
    ["ext-table", "--source", "S", "--target", "Lambda", "--ring", "Fp:2", "--method", "bar"],
    ["bar-homology", "--ring", "Z", "--n", "2", "--weight", "4"],
    ["bar-homology", "--ring", "Fp:3", "--n", "2", "--weight", "4"],
    ["words", "--p", "3", "--height", "3", "--max-degree", "20"],
    ["verify", "--suite", "cartan-field", "--max-weight", "4"],
    ["verify", "--suite", "cartan-integral", "--max-weight", "4"],
    ["verify", "--suite", "koszul"],
    ["verify", "--suite", "tables"],
    ["verify", "--suite", "twist-consistency"],
    ["verify", "--suite", "exponential", "--max-weight", "3"],
]


def test_commands_do_not_load_numpy():
    """No command imports numpy, and neither does the mod-p homology ring."""
    script = textwrap.dedent(
        f"""
        import sys

        from click.testing import CliRunner

        import extbar
        from extbar.cli import main

        runner = CliRunner()
        for args in {GUARDED_COMMANDS!r}:
            result = runner.invoke(main, args)
            assert result.exit_code == 0 and result.output, (args, result.output)
        assert "numpy" not in sys.modules, "numpy loaded by a command"

        ring = extbar.homology_ring_over_Fp(extbar.bar_source_algebra(1, 1), 2, 3)
        x, y = ring.classes(3, 1)[0], ring.classes(6, 2)[0]
        assert ring.multiply(x, y).vector == (1,)
        assert "numpy" not in sys.modules, "numpy loaded by the homology ring"
        print("ok")
        """
    )
    proc = run_fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"ok\n"
