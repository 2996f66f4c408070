"""Frontier cross-checks: the bar route against the closed forms at the
largest weights the suite reaches within a 10 s wall-time budget each, and
the predict route on a table far past them within its own budget.

Over Z the budget also guards Smith normal form against coefficient growth:
a blow-up shows as a budget failure."""

import time

import pytest
from click.testing import CliRunner

from extbar.cli import main
from extbar.verify import run_suite

BUDGET_S = 10.0


@pytest.mark.parametrize(
    "suite, p, n, m, weight_max",
    [
        ("cartan-field", 2, 2, 1, 9),
        ("cartan-field", 3, 2, 1, 9),
        ("exponential", 2, 2, 1, 6),
        ("cartan-integral", 2, 1, 1, 12),
        ("cartan-integral", 2, 2, 1, 8),
        ("cartan-integral", 2, 2, 1, 9),
        ("cartan-integral", 2, 3, 1, 8),
        ("cartan-field", 2, 3, 1, 8),
        ("cartan-field", 2, 2, 1, 10),
        ("cartan-field", 3, 2, 1, 10),
        ("cartan-field", 2, 2, 1, 11),
        ("cartan-field", 3, 2, 1, 11),
        ("cartan-integral", 2, 2, 1, 10),
        ("cartan-field", 2, 3, 1, 9),
        ("cartan-integral", 2, 3, 1, 9),
        ("cartan-integral", 2, 1, 2, 10),
        ("exponential", 2, 1, 1, 10),
        ("cartan-field", 3, 3, 1, 9),
        ("cartan-field", 2, 1, 1, 17),
        ("cartan-field", 3, 1, 1, 17),
        ("cartan-integral", 2, 2, 1, 11),
        ("exponential", 2, 1, 1, 11),
    ],
    ids=[
        "cartan-field-p2-n2-w9",
        "cartan-field-p3-n2-w9",
        "exponential-p2-n2-w6",
        "cartan-integral-n1-w12",
        "cartan-integral-n2-w8",
        "cartan-integral-n2-w9",
        "cartan-integral-n3-w8",
        "cartan-field-p2-n3-w8",
        "cartan-field-p2-n2-w10",
        "cartan-field-p3-n2-w10",
        "cartan-field-p2-n2-w11",
        "cartan-field-p3-n2-w11",
        "cartan-integral-n2-w10",
        "cartan-field-p2-n3-w9",
        "cartan-integral-n3-w9",
        "cartan-integral-n1-m2-w10",
        "exponential-p2-n1-w10",
        "cartan-field-p3-n3-w9",
        "cartan-field-p2-n1-w17",
        "cartan-field-p3-n1-w17",
        "cartan-integral-n2-w11",
        "exponential-p2-n1-w11",
    ],
)
def test_frontier_suite_passes_within_budget(suite, p, n, m, weight_max):
    start = time.perf_counter()
    result = run_suite(suite, p=p, n=n, m=m, weight_max=weight_max)
    elapsed = time.perf_counter() - start
    assert result.passed, result.summary()
    assert elapsed < BUDGET_S, f"{suite} took {elapsed:.2f}s (budget {BUDGET_S:.0f}s)"


PREDICT_BUDGET_S = 1.5


def _predict_symmetric_to_divided_lines(weight_max):
    """The lines of ``S -> Gamma`` over F_2 through ``weight_max``, asserted
    to print within the predict route's budget."""
    start = time.perf_counter()
    result = CliRunner().invoke(
        main,
        ["ext-table", "--source", "S", "--target", "Gamma", "--ring", "Fp:2",
         "--max-weight", str(weight_max)],
    )
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert elapsed < PREDICT_BUDGET_S, (
        f"ext-table took {elapsed:.2f}s (budget {PREDICT_BUDGET_S}s)"
    )
    return result.output.splitlines()


def test_predict_route_symmetric_to_divided_through_weight_200_within_budget():
    lines = _predict_symmetric_to_divided_lines(200)
    assert lines[0] == "Ext^0 (weight 0) = dim 1"
    assert len(lines) == 38931


def test_predict_route_symmetric_to_divided_through_weight_400_within_budget():
    lines = _predict_symmetric_to_divided_lines(400)
    assert lines[0] == "Ext^0 (weight 0) = dim 1"
    assert len(lines) == 157467


def test_predict_route_symmetric_to_divided_through_weight_600_within_budget():
    lines = _predict_symmetric_to_divided_lines(600)
    assert lines[0] == "Ext^0 (weight 0) = dim 1"
    assert len(lines) == 355873
