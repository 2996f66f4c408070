"""Acceptance suite: the nine package-level criteria, each as one test that
prints a single pass line.  Bounds (exact tables, parameter boxes, time
budgets) are pinned here and must not be weakened."""

import json
import time
from math import comb, factorial

import pytest
from click.testing import CliRunner

from extbar import (
    DIVIDED,
    EXTERIOR,
    SYMMETRIC,
    ZZ,
    AbelianGroup,
    Bidegree,
    FreeAlgebra,
    algebras_agree,
    bar,
    bar_source_algebra,
    dimensions_mod_p_from_integral,
    divided_power_composition_coefficient,
    check_one_eps_commutative,
    ext_field_predict,
    ext_table_via_bar,
    hom_dimension,
    homology_over_Fp,
    homology_table,
    poincare_dims,
    regrade,
    weight_twist,
)
from extbar.cli import main
from extbar.homology import check_boundary_squares_to_zero
from extbar.verify import run_suite

Z = AbelianGroup.free(1)


def Zmod(n):
    return AbelianGroup.cyclic(n)


def _passed(k, detail):
    print(f"ACCEPTANCE {k}: PASS — {detail}")


def test_criterion_1_cli_bar_homology_golden_tables():
    runner = CliRunner()

    start = time.perf_counter()
    single = runner.invoke(
        main, ["bar-homology", "--ring", "Z", "--n", "1", "--weight", "4"]
    )
    single_elapsed = time.perf_counter() - start
    assert single.exit_code == 0
    assert single.output.splitlines() == [
        "H_9 (weight 4) = Z/2",
        "H_10 (weight 4) = Z/3",
        "H_11 (weight 4) = Z/2",
    ]
    assert single_elapsed < 1.0, f"single bar took {single_elapsed:.2f}s (budget 1s)"

    start = time.perf_counter()
    double = runner.invoke(
        main, ["bar-homology", "--ring", "Z", "--n", "2", "--weight", "4", "--json"]
    )
    double_elapsed = time.perf_counter() - start
    assert double.exit_code == 0
    assert json.loads(double.output)["groups"] == [
        {"degree": 10, "free_rank": 0, "torsion": [2]},
        {"degree": 12, "free_rank": 0, "torsion": [12]},
        {"degree": 13, "free_rank": 0, "torsion": [2]},
        {"degree": 14, "free_rank": 0, "torsion": [2]},
        {"degree": 16, "free_rank": 1, "torsion": []},
    ]
    assert double_elapsed < 30.0, f"double bar took {double_elapsed:.2f}s (budget 30s)"
    _passed(1, f"CLI golden tables in {single_elapsed:.2f}s / {double_elapsed:.2f}s")


def test_criterion_2_integral_weight4_columns():
    lam = ext_table_via_bar(SYMMETRIC, EXTERIOR, ZZ, 4).groups
    assert [lam.get((i, 4)) for i in range(4)] == [None, Zmod(2), Zmod(3), Zmod(2)]

    gam = ext_table_via_bar(SYMMETRIC, DIVIDED, ZZ, 4).groups
    assert [gam.get((i, 4)) for i in range(7)] == [
        Z,
        None,
        Zmod(2),
        Zmod(2),
        Zmod(12),
        None,
        Zmod(2),
    ]
    _passed(2, "weight-4 integral columns for both targets")


def test_criterion_3_low_codegree_integral_laws():
    start = time.perf_counter()
    groups = ext_table_via_bar(SYMMETRIC, EXTERIOR, ZZ, 7).groups
    elapsed = time.perf_counter() - start

    assert groups.get((1, 1)) is None
    for n in range(2, 7):
        assert groups.get((1, n)) == Zmod(2), f"codegree 1, weight {n}"

    for n in range(1, 7):
        assert (groups.get((2, n)) == Zmod(3)) == (n in (3, 4)), f"codegree 2, weight {n}"

    for n in range(1, 8):
        expected = None if n <= 3 else Zmod(2) if n <= 5 else Zmod(6)
        assert groups.get((3, n)) == expected, f"codegree 3, weight {n}"

    assert elapsed < 300.0, f"took {elapsed:.2f}s (budget 300s)"
    _passed(3, f"codegree 1-3 laws through weight 7 in {elapsed:.2f}s")


def test_criterion_4_field_tables_match_word_prediction():
    checks = 0
    for p in (2, 3):
        for n in (1, 2):
            for m in (1, 2):
                result = run_suite("cartan-field", p=p, n=n, m=m, weight_max=4)
                assert result.passed, result.summary()
                checks += result.checks
    _passed(4, f"8 parameter combinations, {checks} table entries")


def test_criterion_5_weight_p_column_of_symmetric_to_divided():
    for p in (2, 3, 5):
        dims = poincare_dims(ext_field_predict(SYMMETRIC, DIVIDED, p, p), p)
        column = {i: v for (i, d), v in dims.items() if d == p}
        assert column == {0: 1, 2 * p - 3: 1, 2 * p - 2: 1}, f"p={p}"
    _passed(5, "one-dimensional entries at codegrees {0, 2p-3, 2p-2} for p in {2,3,5}")


def test_criterion_6_weight2_hom_dimensions():
    assert hom_dimension(SYMMETRIC, EXTERIOR, 2, 2) == 1
    assert hom_dimension(SYMMETRIC, EXTERIOR, 3, 2) == 0
    _passed(6, "weight-2 degree-0 dimensions at p = 2 and p = 3")


def test_criterion_7_single_generator_complexes():
    result = run_suite("koszul", weight_max=5)
    assert result.passed, result.summary()
    assert result.checks > 0
    _passed(7, f"both variants, h in {{2,3,5}}, weights up to 5 ({result.checks} checks)")


def test_criterion_8_twist_reduction_two_paths():
    total = 0
    for p in (2, 3):
        result = run_suite("twist-consistency", p=p, max_s=2, max_t=2)
        assert result.passed, result.summary()
        total += result.checks
    _passed(8, f"nine pairs, s,t <= 2, both primes ({total} entries)")


def test_criterion_9_structural_suites():
    checks = 0

    # differentials square to zero
    single = bar_source_algebra(1, 1)
    double = bar_source_algebra(2, 1)
    for w in range(6):
        check_boundary_squares_to_zero(single, w)
        checks += 1
    for w in range(5):
        check_boundary_squares_to_zero(double, w)
        checks += 1

    # Leibniz rule, exhaustive in low weight
    monos = [
        (m, single.bidegree(m))
        for w in range(4)
        for basis in single.weight_slice(w).values()
        for m in basis
    ]
    for x, bx in monos:
        for y, by in monos:
            if bx.weight + by.weight > 3:
                continue
            lhs = single.diff(single.mul_monomials(x, y))
            rhs = single.add(
                single.mul(single.diff_monomial(x), {y: 1}),
                single.smul((-1) ** bx.degree, single.mul({x: 1}, single.diff_monomial(y))),
            )
            assert lhs == rhs, (x, y)
            checks += 1

    # shuffle products: commutative and associative in low weight
    ok, witness = check_one_eps_commutative(single, 0, 4)
    assert ok, witness
    checks += 1
    smalls = [m for m, b in monos if 1 <= b.weight <= 1]
    for x in smalls:
        for y in smalls:
            for z in smalls:
                left = single.mul(single.mul_monomials(x, y), {z: 1})
                right = single.mul({x: 1}, single.mul_monomials(y, z))
                assert left == right, (x, y, z)
                checks += 1

    # divided-power axioms: product and composition coefficients
    gamma = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
    for k in range(1, 5):
        for l in range(1, 5):
            composed = factorial(k * l) // (factorial(l) * factorial(k) ** l)
            assert divided_power_composition_coefficient(k, l) == composed
            (xk,) = gamma.basis(Bidegree(2 * k, k))
            (xl,) = gamma.basis(Bidegree(2 * l, l))
            product = gamma.mul_monomials(xk, xl)
            assert list(product.values()) == [comb(k + l, k)]
            checks += 1

    # regrading: even round trips to the identity, odd to the weight twist
    assert algebras_agree(regrade(regrade(single, 2), -2), single, 4)
    assert algebras_agree(regrade(regrade(single, 1), -1), weight_twist(single), 4)
    checks += 2

    # rank-2 tables are the convolution square of rank-1 tables
    for p in (2, 3):
        result = run_suite("exponential", p=p, n=1, weight_max=4)
        assert result.passed, result.summary()
        checks += result.checks

    # universal coefficients: mod-p dimensions from the integral table
    table = homology_table(single, 4)
    for p in (2, 3):
        derived = dimensions_mod_p_from_integral(table, p)
        direct = {}
        for d in range(5):
            for i, dim in homology_over_Fp(single, d, p).items():
                direct[(i, d)] = dim
        assert derived == direct, f"p={p}"
        checks += 1

    _passed(9, f"{checks} structural checks, zero failures")
