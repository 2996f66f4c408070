"""Tests for linear algebra over F_p: ranks and the pivot rows of the
lowest-pivot column reduction against a small pure-Python reference, the
shape check on dense matrices, and the bound on the supported modulus,
whose primality is tested once per process."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from extbar import (
    bar_source_algebra,
    dimensions_mod_p_from_integral,
    homology_over_Fp,
    homology_table,
)
from extbar.homology import _pivot_rows_mod_p, rank_of_columns_mod_p
from extbar.modp import MAX_PRIME, is_prime, rank_mod_p
from extbar.predict import cartan_field_generators


def reference_rref(rows, n, p):
    """Reduced row echelon form mod p of an ``len(rows) x n`` matrix, zero
    rows dropped, and its pivot columns."""
    a = [[v % p for v in row] for row in rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a[: len(pivots)], pivots


def columns_of(rows, n):
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(n)]


def check_pivot_rows(rows, n, p):
    """Assert that :func:`_pivot_rows_mod_p` returns as many rows as the
    rank, and rows on which the block of the matrix at its pivot columns
    (those independent of the columns before them) has full rank mod p: the
    block that clearing needs to be invertible.  Spread over the rows
    ``3 r + 1`` of a taller matrix and reduced on those rows alone, as one
    block of a slice is, the matrix has the same pivot rows, spread alike."""
    pivot_rows = _pivot_rows_mod_p(columns_of(rows, n), p)
    pivot_columns = reference_rref(rows, n, p)[1]
    assert len(pivot_rows) == len(pivot_columns)
    block = [[rows[r][k] for k in pivot_columns] for r in pivot_rows]
    assert len(reference_rref(block, len(pivot_columns), p)[1]) == len(pivot_rows)
    spread = [3 * r + 1 for r in range(len(rows))]
    embedded = [{spread[r]: v for r, v in c.items()} for c in columns_of(rows, n)]
    assert _pivot_rows_mod_p(embedded, p, spread) == [spread[r] for r in pivot_rows]


@st.composite
def matrices(draw):
    """``(p, n, rows)`` with p in {2, 3, 5, 7} and rows an ``m x n`` integer
    matrix, 0 <= m, n <= 5, biased toward zero entries."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    return p, n, [[draw(entry) for _ in range(n)] for _ in range(m)]


SHAPE_EDGES = [
    (2, 3, []),
    (3, 0, [[], [], []]),
    (5, 4, [[0] * 4] * 3),
]


def _with_edge_shapes(test):
    for case in SHAPE_EDGES:
        test = example(case)(test)
    return test


@_with_edge_shapes
@given(matrices())
def test_rank_matches_reference(case):
    p, n, rows = case
    rank = len(reference_rref(rows, n, p)[1])
    assert rank_mod_p(rows, p) == rank
    assert rank_of_columns_mod_p(columns_of(rows, n), p) == rank


@pytest.mark.parametrize("rows", [[[1], [2, 3]], [[1, 2], [3]]])
def test_ragged_rows_are_rejected(rows):
    with pytest.raises(ValueError, match="matrix rows must have equal length"):
        rank_mod_p(rows, 5)


@st.composite
def column_reductions(draw):
    """``(p, n, rows)`` with p in {2, 3, 5, 7} and rows an ``m x n`` integer
    matrix, m <= 7 and n <= 8, biased toward zero entries.  Its columns
    sometimes include one with only even entries, zero over F_2, and a last
    one that is a combination of two columns before it, so it reduces to
    zero."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-6, 6))
    columns = [[draw(entry) for _ in range(m)] for _ in range(draw(st.integers(0, 6)))]
    if draw(st.booleans()):
        even = [2 * draw(entry) for _ in range(m)]
        columns.insert(draw(st.integers(0, len(columns))), even)
    if len(columns) >= 2 and draw(st.booleans()):
        x = draw(st.integers(0, len(columns) - 2))
        y = draw(st.integers(x + 1, len(columns) - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        columns.append([a * u + b * v for u, v in zip(columns[x], columns[y])])
    return p, len(columns), [[column[i] for column in columns] for i in range(m)]


@_with_edge_shapes
@example((2, 3, [[2, 1, 3], [4, 1, 5]]))  # an all-even column, a column that reduces to zero
@example((7, 3, [[1, 0, 2], [0, 1, 3], [4, 5, 2]]))  # col 2 = 2 col 0 + 3 col 1 mod 7
# both columns have their lowest entry in row 0, so only their highest rows
# 1 and 2 give a full rank block
@example((2, 2, [[1, 1], [1, 0], [0, 1]]))
@example((3, 2, [[1, 1], [1, 0], [0, 1]]))
@given(column_reductions())
def test_column_reduction_pivot_rows_give_a_full_rank_block(case):
    p, n, rows = case
    columns = columns_of(rows, n)
    before = [dict(c) for c in columns]
    check_pivot_rows(rows, n, p)
    assert rank_of_columns_mod_p(columns, p) == len(reference_rref(rows, n, p)[1])
    assert columns == before


ODD_LOWS = {
    # column 1 loses 4 / 2 = 2 times column 0 at their low row 1, leaving 6 at row 0
    "second column reduces": ([{0: 3, 1: 2}, {0: 5, 1: 4}], 7, [1, 0]),
    "second column cancels": ([{0: 3, 1: 2}, {0: 6, 1: 4}], 7, [1]),
    "multiples of p drop out": ([{0: 7, 1: -3}, {0: 2, 1: 14}], 7, [1, 0]),
    "a multiple of p is no low": ([{0: 2, 1: 14}], 7, [0]),
    # the last column takes two reduction steps, at rows 2 and 1
    "two steps": ([{0: 1, 2: -2}, {1: 3, 2: 1}, {0: 2, 1: 1, 2: 2}], 5, [2, 1, 0]),
}


@pytest.mark.parametrize("columns, p, pivot_rows", ODD_LOWS.values(), ids=ODD_LOWS.keys())
def test_odd_p_pivot_rows_with_stored_lows_other_than_one(columns, p, pivot_rows):
    before = [dict(c) for c in columns]
    assert _pivot_rows_mod_p(columns, p) == pivot_rows
    assert columns == before


@st.composite
def systems(draw):
    """``(p, n, rows, b)`` for ``rows x = b``: half consistent by
    construction, half with a random right-hand side."""
    p, n, rows = draw(matrices())
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        return p, n, rows, [sum(a * b for a, b in zip(row, x0)) % p for row in rows]
    return p, n, rows, draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))


@example((2, 3, [], []))
@example((3, 0, [[], [], []], [0, 1, 0]))
@example((5, 4, [[0] * 4] * 3, [0, 0, 0]))
@example((3, 2, [[1, 1], [2, 2]], [1, 0]))  # rows dependent, right-hand side not
@given(systems())
def test_rank_decides_whether_a_system_has_a_solution(system):
    """``rows x = b`` is solvable mod p exactly when appending ``b`` as a
    column keeps the rank (Rouche-Capelli), and the reference elimination of
    the augmented matrix then yields a solution."""
    p, n, rows, b = system
    augmented = [row + [v] for row, v in zip(rows, b)]
    red, pivots = reference_rref(augmented, n + 1, p)
    consistent = n not in pivots
    assert (rank_mod_p(augmented, p) == rank_mod_p(rows, p)) == consistent
    if consistent:
        x = [0] * n
        for r, c in enumerate(pivots):
            x[c] = red[r][n]
        assert all((sum(a * c for a, c in zip(row, x)) - v) % p == 0 for row, v in zip(rows, b))


# ----------------------------------------------------------------------
# the bound on the modulus
# ----------------------------------------------------------------------


def rank_over_q(rows):
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        k = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[rank], a[k] = a[k], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def test_primes_past_the_bound_are_rejected():
    assert MAX_PRIME == 3037000493
    assert (MAX_PRIME - 1) ** 2 <= 2**63 - 1
    with pytest.raises(ValueError, match=str(MAX_PRIME)):
        rank_mod_p([[1, 2], [3, 4]], 3037000507)


def test_homology_over_Fp_rejects_primes_past_the_bound():
    with pytest.raises(ValueError, match=str(MAX_PRIME)):
        homology_over_Fp(bar_source_algebra(1, 1), 1, 3037000507)
    with pytest.raises(ValueError, match=str(MAX_PRIME)):
        rank_of_columns_mod_p([{0: 1}], 3037000507)


def test_each_modulus_is_tested_for_primality_once():
    # cartan_field_generators, the word degree bound and the word
    # enumeration each check the modulus; trial division runs only the first time
    is_prime.cache_clear()
    cartan_field_generators(MAX_PRIME, 1, 4)
    assert is_prime.cache_info().misses == 1


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_moduli_that_are_not_primes_are_rejected(p):
    algebra = bar_source_algebra(1, 1)
    calls = [
        lambda: homology_over_Fp(algebra, 4, p),
        lambda: rank_of_columns_mod_p([{0: 2, 1: 1}, {0: 1, 1: 1}], p),
        lambda: rank_mod_p([[2, 1], [1, 1]], p),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"modulus {p} is not a prime")):
            call()


def test_rank_at_the_largest_supported_prime_matches_rank_over_q():
    # Every minor of these 6x6 matrices is far below MAX_PRIME in absolute
    # value (Hadamard), so the two ranks must agree.  Every other matrix is
    # made singular.
    rng = random.Random(0)
    for k in range(200):
        a = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(6)]
        if k % 2:
            for row in a:
                row[5] = row[0] + row[1]
        assert rank_mod_p(a, MAX_PRIME) == rank_over_q(a)


@st.composite
def wide_entry_matrices(draw):
    """An ``m x n`` integer matrix, 0 <= m, n <= 7, with entries anywhere in
    ``(-2 MAX_PRIME, 2 MAX_PRIME)``, many of them multiples of MAX_PRIME or
    one off one, so that entries vanish or turn into +-1 only mod p."""
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0, 7))
    entry = st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.sampled_from([-MAX_PRIME, MAX_PRIME, MAX_PRIME - 1, MAX_PRIME + 1, 1 - MAX_PRIME]),
        st.integers(-2 * MAX_PRIME + 1, 2 * MAX_PRIME - 1),
    )
    return [[draw(entry) for _ in range(n)] for _ in range(m)], n


@example(([], 3))
@example(([[MAX_PRIME, 2 * MAX_PRIME - 1], [MAX_PRIME + 1, 1]], 2))
@given(wide_entry_matrices())
def test_sparse_rank_at_the_largest_supported_prime_matches_reference(case):
    rows, n = case
    columns = columns_of(rows, n)
    rank = len(reference_rref(rows, n, MAX_PRIME)[1])
    assert rank_of_columns_mod_p(columns, MAX_PRIME) == rank
    check_pivot_rows(rows, n, MAX_PRIME)


def test_bar_homology_at_the_largest_supported_prime_follows_universal_coefficients():
    algebra = bar_source_algebra(1, 1)
    integral = homology_table(algebra, 6)
    expected = dimensions_mod_p_from_integral(integral, MAX_PRIME)
    got = {
        (i, d): dim
        for d in range(7)
        for i, dim in homology_over_Fp(algebra, d, MAX_PRIME).items()
    }
    assert got == expected
