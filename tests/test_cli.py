"""End-to-end tests of the command-line interface: golden outputs for every
subcommand, the documented exit codes, byte-for-byte determinism, and what a
fresh interpreter loads to run them."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import extbar
from extbar import AbelianGroup, InternalAssertionError, SuiteResult, run_suite
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


def test_words_at_max_degree_zero_lists_nothing(runner):
    result = runner.invoke(main, ["words", "--p", "3", "--height", "1", "--max-degree", "0"])
    assert result.exit_code == 0
    assert result.output == "# word\tdegree\ttwisting\tweight\n"


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


@pytest.mark.parametrize("ring", ["Fp:x", "Q"])
@pytest.mark.parametrize(
    "command", [["bar-homology", "--weight", "2"], ["ext-table", "--source", "S", "--target", "Gamma"]]
)
def test_ring_that_is_not_z_or_fp_is_a_usage_error(runner, command, ring):
    result = runner.invoke(main, [*command, "--ring", ring])
    assert result.exit_code == 2
    assert f"invalid ring '{ring}': expected 'Z' or 'Fp:<prime>'" in result.output


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


#: ``verify`` arguments and the exact summary line each prints; the check
#: count is part of the output the benchmark compares.
VERIFY_SUMMARIES = [
    ("--suite cartan-field", "cartan-field: PASS (10 checks)"),
    ("--suite cartan-integral", "cartan-integral: PASS (8 checks)"),
    ("--suite koszul", "koszul: PASS (30 checks)"),
    ("--suite twist-consistency", "twist-consistency: PASS (280 checks)"),
    ("--suite exponential", "exponential: PASS (10 checks)"),
    ("--suite tables", "tables: PASS (8 checks)"),
    ("--suite cartan-field --p 3 --n 2 --max-weight 7", "cartan-field: PASS (22 checks)"),
    ("--suite cartan-integral --n 2 --m 2 --max-weight 5", "cartan-integral: PASS (18 checks)"),
    ("--suite cartan-integral --n 1 --m 3 --max-weight 5", "cartan-integral: PASS (14 checks)"),
    ("--suite exponential --p 2 --n 2 --max-weight 5", "exponential: PASS (22 checks)"),
]


def test_verify_passing_suites(runner):
    for args, summary in VERIFY_SUMMARIES:
        result = runner.invoke(main, ["verify", *args.split()])
        assert result.exit_code == 0, args
        assert result.output == summary + "\n"


def test_verify_on_a_shared_tower_prints_what_a_lone_run_prints(runner, square_checks):
    def verify(p):
        args = ["verify", "--suite", "cartan-field", "--n", "2", "--p", str(p), "--max-weight", "7"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        return result.stdout_bytes

    shared = [verify(3), verify(5)]
    assert square_checks == list(range(8))
    alone = []
    for p in (3, 5):
        extbar.extract._towers = {}  # as a fresh process starts
        alone.append(verify(p))
    assert shared == alone
    assert shared[0] == b"cartan-field: PASS (22 checks)\n"


def test_verify_rejects_unknown_suite_and_bad_prime(runner):
    result = runner.invoke(main, ["verify", "--suite", "bogus"])
    assert result.exit_code == 2

    result = runner.invoke(main, ["verify", "--suite", "tables", "--p", "6"])
    assert result.exit_code == 2
    assert "--p must be prime, got 6" in result.output


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--n", "-1", "--n must be >= 0"),
        ("--m", "0", "--m must be >= 1"),
        ("--max-weight", "-1", "--max-weight must be >= 0"),
        ("--max-s", "-1", "--max-s/--max-t must be >= 0"),
        ("--max-t", "-1", "--max-s/--max-t must be >= 0"),
    ],
)
def test_verify_names_the_option_out_of_bounds(runner, option, value, message):
    result = runner.invoke(main, ["verify", "--suite", "cartan-field", option, value])
    assert result.exit_code == 2
    assert message in result.output
    assert "nonnegative" not in result.output


@pytest.mark.parametrize("suite", ["exponential", "koszul", "twist-consistency", "tables"])
def test_verify_rejects_m_for_suites_that_ignore_it(runner, suite):
    result = runner.invoke(main, ["verify", "--suite", suite, "--m", "2"])
    assert result.exit_code == 2
    assert "--m is taken only by the cartan-field and cartan-integral suites" in result.output
    message = f"suite {suite!r} runs at m = 1 only, got m = 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite(suite, m=2)


@pytest.mark.parametrize("m", [1, 2])
def test_run_suite_names_an_unknown_suite_before_the_m_rule(m):
    with pytest.raises(ValueError, match=re.escape("unknown suite 'nosuch'")):
        run_suite("nosuch", m=m)


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


def _with_wrong_entries(monkeypatch, name, wrong, call=1):
    """Patch ``extbar.verify.<name>`` so that the table its ``call``-th call
    returns also holds the entries of ``wrong``."""
    real = getattr(extbar.verify, name)
    calls = itertools.count(1)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return {**out, **wrong} if next(calls) == call else out

    monkeypatch.setattr(extbar.verify, name, patched)


Z2, Z3, Z7 = (AbelianGroup.cyclic(n) for n in (2, 3, 7))


@pytest.mark.parametrize(
    "suite, name, wrong, call, mismatch",
    [
        # weight by weight: (50, 1) is compared before (40, 2)
        ("cartan-field", "poincare_dims", {(50, 1): 7, (40, 2): 7}, 1,
         "at (50, 1) [p=2 n=1 m=1]: computed None, predicted 7"),
        ("cartan-integral", "predicted_bar_homology", {(50, 1): Z2, (40, 2): Z2}, 1,
         f"at (40, 2) [n=1 m=1]: computed None, predicted {Z2!r}"),
        ("koszul", "koszul_homology_closed_form", {(50, 1): Z2, (40, 2): Z2}, 1,
         f"at (40, 2) [variant=Koszul h=2]: computed None, predicted {Z2!r}"),
        # the first call is the direct table of the first pair
        ("twist-consistency", "poincare_dims", {(50, 1): 7, (40, 2): 7}, 1,
         "at (40, 2) [S->S p=2 s=0 t=0]: computed None, predicted 7"),
        # the first call is the rank-1 table; its entry is convolved with
        # the unit twice
        ("exponential", "homology_table", {(50, 1): 7}, 1,
         "at (50, 1) [p=2 n=1]: computed None, predicted 14"),
    ],
    ids=["cartan-field", "cartan-integral", "koszul", "twist-consistency", "exponential"],
)
def test_verify_reports_the_first_mismatch_and_exits_one(
    runner, monkeypatch, suite, name, wrong, call, mismatch
):
    _with_wrong_entries(monkeypatch, name, wrong, call)
    result = runner.invoke(main, ["verify", "--suite", suite])
    assert result.exit_code == 1
    assert result.output == f"{suite}: FAIL ({mismatch})\n"


def test_verify_tables_reports_the_first_mismatch_and_exits_one(runner, monkeypatch):
    monkeypatch.setitem(extbar.verify.GOLDEN_WEIGHT4_SINGLE, 10, Z7)
    monkeypatch.setitem(extbar.verify.GOLDEN_WEIGHT4_SINGLE, 50, Z7)
    result = runner.invoke(main, ["verify", "--suite", "tables"])
    assert result.exit_code == 1
    assert result.output == f"tables: FAIL (at (10, 4) [n=1]: computed {Z3!r}, predicted {Z7!r})\n"


def test_internal_assertion_exits_three(runner, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalAssertionError("boundary square check failed")

    monkeypatch.setattr("extbar.cli.run_suite", boom)
    result = runner.invoke(main, ["verify", "--suite", "tables"])
    assert result.exit_code == 3
    assert "internal assertion failed: boundary square check failed" in result.stderr


@pytest.mark.parametrize(
    "args, code, stdout",
    [
        (["bar-homology", "--n", "350", "--weight", "1"], 2, b""),
        (["verify", "--suite", "cartan-integral", "--n", "600", "--max-weight", "1"], 2, b""),
        (["words", "--p", "3", "--height", "1500", "--max-degree", "1500"], 2, b""),
        (["bar-homology", "--n", "300", "--weight", "1"], 0, b"H_302 (weight 1) = Z\n"),
    ],
    ids=["bar-homology", "verify", "words", "bar-homology-300"],
)
def test_requests_too_deep_to_recurse_exit_two(args, code, stdout):
    """A request deeper than the interpreter can recurse is a usage error:
    one stderr line naming the options to lower, no traceback."""
    proc = run_fresh_python("-m", "extbar", *args)
    assert (proc.returncode, proc.stdout) == (code, stdout)
    if code:
        assert proc.stderr == b"request too deep to recurse: lower --n or --height\n"


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
# golden digests: the bar route's exact output bytes
# ----------------------------------------------------------------------

#: ``(arguments, exit code, sha256 of stdout)`` for bar-route invocations
#: over Z, F_2 and F_3 in every output format: slice homology must keep
#: these output bytes.  The ``--n 0 --json`` rows on two and three
#: generators pin the free algebra's one block per orbit at level 0.  The
#: last row cuts the integral table at a codegree.
GOLDEN_DIGESTS = [
    ("bar-homology --ring Z --n 0 --m 1 --weight 8", 0, "facef771d67d2a22dfae277459f78acb74123aec34d6562687e3fe3f638b0923"),
    ("bar-homology --ring Z --n 0 --m 2 --weight 8", 0, "7ec15672d214f139da363252832eb1ca897082504f1c3100b5b35d7b5dc8e62a"),
    ("bar-homology --ring Z --n 1 --m 1 --weight 10", 0, "99e8553430ae775eec20d10909e7e3bdfd8b0343133a02714e9af1a44d54ec6e"),
    ("bar-homology --ring Z --n 1 --m 2 --weight 6", 0, "c633237684a40e71e0ab628995dd9a6de28a4eda6080f0cda62d7efd79f1370d"),
    ("bar-homology --ring Z --n 2 --m 1 --weight 7", 0, "6fe755996f9b35f0006b24aa44dfd99fba3ee65eb0b6e775cf4234e5913cf0a8"),
    ("bar-homology --ring Z --n 2 --m 2 --weight 5", 0, "3a9ace5a2f4cce52f7f11ae7140963e043d5e62daa07929c229dfb817e5e0638"),
    ("bar-homology --ring Z --n 3 --m 1 --weight 5", 0, "00c2fc5489beb97887bd44890838f917b1833ca6bfa423a29788bff91ca036ab"),
    ("bar-homology --ring Z --n 3 --m 2 --weight 4", 0, "8565feddb8dbfb76a6e3d5953719c18d99a1c3011c6b7d2948f9689ecded9221"),
    ("bar-homology --ring Z --n 1 --m 3 --weight 5", 0, "ebf626f8637dd2f656a306281778f243a6ddf8a7cb5b14de49115688ffe728fd"),
    ("bar-homology --ring Z --n 2 --m 3 --weight 4", 0, "122b61c153cf293a2d7bb9895219ff6f6fbba1fe14bedf7dd5b6fbba6f8dc760"),
    ("bar-homology --ring Z --n 1 --m 4 --weight 4", 0, "6f5df50dbdf72b8f020396b838cf1480ca8d1a21cb4ea785c659e98290804511"),
    ("bar-homology --ring Fp:2 --n 0 --m 1 --weight 8", 0, "daf21fd9de78f00b1ceab11517c3014e15ad50e001395ff23c9745a7bd5abcff"),
    ("bar-homology --ring Fp:2 --n 0 --m 2 --weight 8", 0, "a807dc84ae576c387e6d1c8e8747c55858b63d1f5801fa9085b8715e7cf16371"),
    ("bar-homology --ring Fp:2 --n 1 --m 1 --weight 10", 0, "ba27f7063fb0b54e1e4765807caf6e5647c1c58b87d192c3898f9bd079be4819"),
    ("bar-homology --ring Fp:2 --n 1 --m 2 --weight 6", 0, "0ced840404eea859347c40eb295961849b16d3d9116d6da9ec26e797d4d451d0"),
    ("bar-homology --ring Fp:2 --n 2 --m 1 --weight 7", 0, "9a638088441fdfaffa5c11e18d6d37a99fc53cdc917bd30d5b34bdf8181c86de"),
    ("bar-homology --ring Fp:2 --n 2 --m 2 --weight 5", 0, "491c41d7e41e027ca9f440875fa90eb8be77c8b34db24bd0da63c7732f111e16"),
    ("bar-homology --ring Fp:2 --n 3 --m 1 --weight 5", 0, "ae7d6053a5602531fd00c1776aad4b82cd9b565c2f333cd09cb968a6d2a2e6bb"),
    ("bar-homology --ring Fp:2 --n 3 --m 2 --weight 4", 0, "f50b9d40d2cc67b00871804e81b9394366b0e8c5d0b2211ef714a44746910b4d"),
    ("bar-homology --ring Fp:2 --n 1 --m 3 --weight 5", 0, "c4d32c57de936ee11ffed602a59167c780ec2e829d2523366ae252d36e815a8e"),
    ("bar-homology --ring Fp:2 --n 2 --m 3 --weight 4", 0, "dffb6d87e1dfb2a7806d9e4c2bfea9c1f10e84b73b32136e541a397f9c26366d"),
    ("bar-homology --ring Fp:2 --n 1 --m 4 --weight 4", 0, "d01b10a3543b2453ba68674e8c37367d253eae0dabc92da013b42b9f28d539ed"),
    ("bar-homology --ring Fp:3 --n 0 --m 1 --weight 8", 0, "daf21fd9de78f00b1ceab11517c3014e15ad50e001395ff23c9745a7bd5abcff"),
    ("bar-homology --ring Fp:3 --n 0 --m 2 --weight 8", 0, "a807dc84ae576c387e6d1c8e8747c55858b63d1f5801fa9085b8715e7cf16371"),
    ("bar-homology --ring Fp:3 --n 1 --m 1 --weight 10", 0, "2f30ac4b5b4f5f4115a6e9a3e2b0357b06c42d68963395aafa5b548ab1247256"),
    ("bar-homology --ring Fp:3 --n 1 --m 2 --weight 6", 0, "cebd985e9846d3bed57b620f7604038e55da8b8823eaa8b4faccaac372a211b8"),
    ("bar-homology --ring Fp:3 --n 2 --m 1 --weight 7", 0, "79d8c001b60f16dd3f36b6def701952b009ba4398f5d90d28eaf93834e654bbd"),
    ("bar-homology --ring Fp:3 --n 2 --m 2 --weight 5", 0, "85cbc2c372b04a31352d2131073bfcdd4438726adecdec6a7a79663c0d2d8174"),
    ("bar-homology --ring Fp:3 --n 3 --m 1 --weight 5", 0, "fa7a2d530889835dc8f23b95723f13128470dad84b33cd75c994f4ac86d09fc0"),
    ("bar-homology --ring Fp:3 --n 3 --m 2 --weight 4", 0, "852412755347db9787ea40a8c3c78e60dab98daa42702d8d0e5a5683415a01fc"),
    ("bar-homology --ring Fp:3 --n 1 --m 3 --weight 5", 0, "0593410b2d5fa1f8e94bcaed4b65950f12dcce3d4a6e2140eaa4dd209b790fed"),
    ("bar-homology --ring Fp:3 --n 2 --m 3 --weight 4", 0, "a521e61bab7799c83673df0d34e7a0e874a68acd905e131fabe30df72806a77c"),
    ("bar-homology --ring Fp:3 --n 1 --m 4 --weight 4", 0, "fe60ff0fdbaf5ed7a27749f304d7c15f7348487ff11f227ebb49d9a8c1a37325"),
    ("ext-table --source S --target Gamma --ring Z --method bar --max-weight 8", 0, "9e567c2d817c281d3df0dd0b40aa653227e5269268fd18798dc793663df6d319"),
    ("ext-table --source S --target Gamma --ring Z --method bar --max-weight 8 --json", 0, "bb6f7ed31841fe5f214cc3d25843970bb1a2b30e5576e80d025752e8a7e02c39"),
    ("ext-table --source S --target Gamma --ring Z --method bar --max-weight 8 --csv", 0, "7bc4de49cec2a7af0282a74674c8a71a27cac0433575deb38ba42b8020bb472b"),
    ("ext-table --source S --target Gamma --ring Fp:2 --method bar --max-weight 8", 0, "5c27bb9c286e49d5c6c0842d4ea3ecfe3e5d16d45f3f43e99337b3495393ff2f"),
    ("ext-table --source S --target Gamma --ring Fp:2 --method bar --max-weight 8 --json", 0, "2d590420fc7f0f6140805dc76eab3332998311913b6e4d880ff649ebe0b840d2"),
    ("ext-table --source S --target Gamma --ring Fp:2 --method bar --max-weight 8 --csv", 0, "5e8ce1e34cb4b8f27605d4fe7ba2dd71ad9ebf5adde04b6b94291982563fcf4f"),
    ("ext-table --source S --target Gamma --ring Fp:3 --method bar --max-weight 8", 0, "85a708c894834bdda658a6a819f5170b64e96b34dba5db8f3b0b55e356eccd80"),
    ("ext-table --source S --target Gamma --ring Fp:3 --method bar --max-weight 8 --json", 0, "2340afe8655a80dd6179ea8aa222d4260a4c6091d4f807667795c6a778824455"),
    ("ext-table --source S --target Gamma --ring Fp:3 --method bar --max-weight 8 --csv", 0, "de1a3d9fb60a169362e515a784ab43ca5289cef33a8821ebd364cd480a1622f2"),
    ("ext-table --source S --target Lambda --ring Z --method bar --max-weight 8", 0, "31d60eb1f0338eab866e5c7eda6d8a26acbc6acfafb047d537a5b6c1aa58f0e4"),
    ("ext-table --source S --target Lambda --ring Z --method bar --max-weight 8 --json", 0, "f26d9db3a720affc4036c41ebfb721b8ab4aab1990481d3ababe7a969783ff2e"),
    ("ext-table --source S --target Lambda --ring Z --method bar --max-weight 8 --csv", 0, "def4b759c6e69f48acf51e842cc34274ccef56eb3f9cad99f9a49f2815c37151"),
    ("ext-table --source S --target Lambda --ring Fp:2 --method bar --max-weight 8", 0, "635bed7750308ffd562460f3b36b119c4a0f637fe70b19a9b001a5747faa55b6"),
    ("ext-table --source S --target Lambda --ring Fp:2 --method bar --max-weight 8 --json", 0, "6c2eddc8226931661194e1d5278da4892a1a1459e018282163fac5e6cc6618e0"),
    ("ext-table --source S --target Lambda --ring Fp:2 --method bar --max-weight 8 --csv", 0, "03c74fc00d98da092607c171fc11675c4ee404bc483233de7f4367ab0b1a2402"),
    ("ext-table --source S --target Lambda --ring Fp:3 --method bar --max-weight 8", 0, "793655da2099a44ecbbcfc122f38aca1d80c913b6042015f088adb079b8d8765"),
    ("ext-table --source S --target Lambda --ring Fp:3 --method bar --max-weight 8 --json", 0, "aa7c7ced93dc1d4c087003d6739adb2cb75895b12ef390447017e707a421e43c"),
    ("ext-table --source S --target Lambda --ring Fp:3 --method bar --max-weight 8 --csv", 0, "7e2bbb300ab3b7bae3edbc6f0246c85f57a5c8ef95cb88773b4c693131fe41c2"),
    ("bar-homology --ring Z --n 0 --m 2 --weight 0 --json", 0, "a2bf771cb4a2f67405ade6b9c81efa639df319c839a9197d9c8f0b085f0465ae"),
    ("bar-homology --ring Z --n 0 --m 2 --weight 1 --json", 0, "4b9fef2e8d746d82824f9bef366a74a5a5f4f471e28e940889349768b6b9f64e"),
    ("bar-homology --ring Z --n 0 --m 2 --weight 2 --json", 0, "4cf69296c70394b414a29d6375e72f7c34cabadac9daaa69b891d862d41e2eb4"),
    ("bar-homology --ring Z --n 0 --m 2 --weight 3 --json", 0, "63748a713e66cd4857fa44bc1b7f28b4584863b6c59ee2a33a8d08702abd8210"),
    ("bar-homology --ring Z --n 0 --m 2 --weight 4 --json", 0, "5bb3db0257545926e592847d92c859e5bfc8020b608648cb6062a1405255140f"),
    ("bar-homology --ring Z --n 0 --m 3 --weight 0 --json", 0, "a6f2969afefb52e3a062fa6e5f625cdc4e3cd63d348a9662cbb159998f5ee427"),
    ("bar-homology --ring Z --n 0 --m 3 --weight 1 --json", 0, "d43d396a0710a742bf48c1422b6641c477424e69c6a5dcdc450a3b0962ac3198"),
    ("bar-homology --ring Z --n 0 --m 3 --weight 2 --json", 0, "1d169f96d03904de9cd15659fbbb1c6734757fe8daf9efb1c5953eedb38a5663"),
    ("bar-homology --ring Z --n 0 --m 3 --weight 3 --json", 0, "6cdf0bcc1e246374ba80e3f741a77f83d9f5c7c6568a6b957673fcc3d28a79ce"),
    ("bar-homology --ring Z --n 0 --m 3 --weight 4 --json", 0, "3f81f215134ad581350ee5b2017d867bc2f5bb991a5a9434501aec98f4120eda"),
    ("bar-homology --ring Fp:2 --n 0 --m 2 --weight 0 --json", 0, "84daf759642d70097e1e7028a756e51b4fa09ae666be6ef775d8cab9255f48fa"),
    ("bar-homology --ring Fp:2 --n 0 --m 2 --weight 1 --json", 0, "33b42a021eb7b79f1133a3b617ff704c63fbeb16a38e242897a15f77cedbec88"),
    ("bar-homology --ring Fp:2 --n 0 --m 2 --weight 2 --json", 0, "5c0ace9e35eebc3aba1db848cc44dad82692dd7066c8df77b9be29a459074ab5"),
    ("bar-homology --ring Fp:2 --n 0 --m 2 --weight 3 --json", 0, "14bbae07f3229c3f39a834b1fc6f035722151644221f755db2d12981ad0a16be"),
    ("bar-homology --ring Fp:2 --n 0 --m 2 --weight 4 --json", 0, "0d603ba0fff746cdd20fb5f2143fb52ea41a4acefced90ca1d08b235428de0f2"),
    ("bar-homology --ring Fp:2 --n 0 --m 3 --weight 0 --json", 0, "eef3b153f41b090352635dc24ee9d40ae5424c53dd8b6757b1dbf75493699703"),
    ("bar-homology --ring Fp:2 --n 0 --m 3 --weight 1 --json", 0, "88c9a0f8b7a4dd931de3dec6a4a08b3857e6c4f976589fd94ffebcec49e3d411"),
    ("bar-homology --ring Fp:2 --n 0 --m 3 --weight 2 --json", 0, "893aede6e71bef3faabd879fbb969d993b629077c89e98921c9b1831271187fd"),
    ("bar-homology --ring Fp:2 --n 0 --m 3 --weight 3 --json", 0, "ec29b25a66039977979c5ae683ecf28e30da80b84271d3b194be3ce4d1eeac13"),
    ("bar-homology --ring Fp:2 --n 0 --m 3 --weight 4 --json", 0, "193d60d7f6705a49ae7031cde8b4d2e36d33b1fba2a48a5c872079f89fea9e9d"),
    ("bar-homology --ring Z --n 2 --weight 5 --json", 0, "9e026d5a94509a8de4ce86293d60c3a169a3d302eb6a235544f23850ff2bdd79"),
    ("bar-homology --ring Z --n 2 --weight 5 --csv", 0, "6c81b71bc617f784af247a16281cca664fc0ded4e6b9b9f2ceb4f05643ed57aa"),
    ("bar-homology --ring Fp:3 --n 2 --weight 5 --json", 0, "52e454cdbeaf719acfad93884b4402c2b9a34b2a54bfb944b1fe0e50b3c8fc0f"),
    ("bar-homology --ring Fp:3 --n 2 --weight 5 --csv", 0, "c34db16e721789db069133d15a015350168f97bee05d7184ed9da84550e62d9e"),
    ("ext-table --source S --target Gamma --ring Z --max-weight 6 --max-codegree 6", 0, "3896295cb9f31ae68851db022a9466ab8d794e90a1fad26741a0c823d8176d28"),
]


@pytest.mark.parametrize(
    "args, exit_code, digest", GOLDEN_DIGESTS, ids=[a for a, _, _ in GOLDEN_DIGESTS]
)
def test_bar_route_output_matches_its_golden_digest(runner, args, exit_code, digest):
    _assert_output_digest(runner, args, exit_code, digest)


def _assert_output_digest(runner, args, exit_code, digest):
    result = runner.invoke(main, args.split())
    assert result.exit_code == exit_code
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


#: The same for the predict route (the default ``--method`` over a field):
#: the Poincaré tables must keep these output bytes.  The two rows past the
#: generators' lightest weight print only the unit entry; the rows on weight
#: lattices 9 and 5 print the twisted tables themselves.  The last four rows
#: print the integral closed forms, the last one cut at a codegree, which
#: prints the same bytes as the bar route's row above.
PREDICT_GOLDEN_DIGESTS = [
    ("ext-table --source S --target Gamma --ring Fp:2 --max-weight 200", 0, "be83ed38e8be2b9909c902dd902586548a58d9a5430c23d994a3e41ba836e2dc"),
    ("ext-table --source S --target Gamma --ring Fp:2 --max-weight 200 --json", 0, "3c40cecc034bd092b1068eb729bd704e27f40848b83c5a825bff78d0cce409d1"),
    ("ext-table --source S --target Gamma --ring Fp:2 --max-weight 200 --csv", 0, "c37fd9245480dc58f84047c94d282fbab88a28dc5d8720542ad901252e77ecc7"),
    ("ext-table --source Gamma --target S --ring Fp:3 --s 2 --t 2 --max-weight 70", 0, "7e555541181a7585a841d0ce8f1868eaae63964b63736fd53e43c1aee47ed270"),
    ("ext-table --source Lambda --target Gamma --ring Fp:5 --s 1 --t 2 --max-weight 70 --max-codegree 60", 0, "7e555541181a7585a841d0ce8f1868eaae63964b63736fd53e43c1aee47ed270"),
    ("ext-table --source Gamma --target S --ring Fp:3 --s 2 --max-weight 70", 0, "8da182cc625909d1ccae30f51da3a5a538b88f7524afb67e35562dcc480d2aea"),
    ("ext-table --source Lambda --target Gamma --ring Fp:5 --s 1 --max-weight 70 --max-codegree 60", 0, "764951b98b40ba22f9ad191b71e17bc75d9c8549e113778215dbdf3ef9196d26"),
    ("ext-table --source Lambda --target Gamma --ring Fp:5 --s 1 --max-weight 70 --max-codegree 60 --json", 0, "94b158dbb9f4c2634efd3114ea340a64e46b26e439cdd4f2661970042295b5be"),
    ("ext-table --source S --target Lambda --ring Z --method predict --m 2 --max-weight 6", 0, "999268eadf0c7c491da6d14a4cf6a41df77871705c09412f4b1453d197280d06"),
    ("ext-table --source S --target Lambda --ring Z --method predict --m 2 --max-weight 6 --json", 0, "94141e278a040c08634274c0e51d62f9769b00c14ff8aa7415125d6129f01889"),
    ("ext-table --source S --target Lambda --ring Z --method predict --m 2 --max-weight 6 --csv", 0, "f5e102e79a6ecb8610cfb75407828419681c904f3ba39f2cfe1d146ed489b426"),
    ("ext-table --source S --target Gamma --ring Z --method predict --max-weight 6 --max-codegree 6", 0, "3896295cb9f31ae68851db022a9466ab8d794e90a1fad26741a0c823d8176d28"),
]


@pytest.mark.parametrize(
    "args, exit_code, digest",
    PREDICT_GOLDEN_DIGESTS,
    ids=[a for a, _, _ in PREDICT_GOLDEN_DIGESTS],
)
def test_predict_route_output_matches_its_golden_digest(runner, args, exit_code, digest):
    _assert_output_digest(runner, args, exit_code, digest)


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
    """No command imports numpy."""
    script = textwrap.dedent(
        f"""
        import sys

        from click.testing import CliRunner

        from extbar.cli import main

        runner = CliRunner()
        for args in {GUARDED_COMMANDS!r}:
            result = runner.invoke(main, args)
            assert result.exit_code == 0 and result.output, (args, result.output)
        assert "numpy" not in sys.modules, "numpy loaded by a command"
        print("ok")
        """
    )
    proc = run_fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"ok\n"
