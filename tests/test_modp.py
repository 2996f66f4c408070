"""Tests for dense linear algebra over F_p: ranks, reduced row echelon form,
kernels and solutions against a small pure-Python reference, and the int64
bound on the modulus."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from extbar import (
    bar_source_algebra,
    dimensions_mod_p_from_integral,
    homology_over_Fp,
    integral_homology_table,
)
from extbar.modp import (
    MAX_PRIME,
    nullspace_mod_p,
    rank_mod_p,
    rank_of_columns_mod_p,
    rref_mod_p,
    solve_mod_p,
)


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


@st.composite
def matrices(draw):
    """``(p, a)`` with p in {2, 3, 5, 7} and a an ``m x n`` ``int64`` array,
    0 <= m, n <= 5, biased toward zero entries."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    entries = draw(st.lists(entry, min_size=m * n, max_size=m * n))
    return p, np.array(entries, dtype=np.int64).reshape(m, n)


def _columns(a):
    m, n = a.shape
    return [{r: int(a[r, j]) for r in range(m) if a[r, j]} for j in range(n)]


SHAPE_EDGES = [
    (2, np.zeros((0, 3), dtype=np.int64)),
    (3, np.zeros((3, 0), dtype=np.int64)),
    (5, np.zeros((3, 4), dtype=np.int64)),
]


def _with_edge_shapes(test):
    for case in SHAPE_EDGES:
        test = example(case)(test)
    return test


@_with_edge_shapes
@given(matrices())
def test_rank_matches_reference(case):
    p, a = case
    rank = len(reference_rref(a.tolist(), a.shape[1], p)[1])
    assert rank_mod_p(a, p) == rank
    assert rank_of_columns_mod_p(_columns(a), a.shape[0], p) == rank
    if a.shape[0]:
        assert rank_mod_p(a.tolist(), p) == rank


@_with_edge_shapes
@given(matrices())
def test_rref_matches_reference(case):
    p, a = case
    rows, pivots = reference_rref(a.tolist(), a.shape[1], p)
    red, got = rref_mod_p(a, p)
    assert red.shape == (len(pivots), a.shape[1])
    assert red.tolist() == rows
    assert got == tuple(pivots)


@_with_edge_shapes
@given(matrices())
def test_nullspace_spans_kernel(case):
    p, a = case
    n = a.shape[1]
    rank = len(reference_rref(a.tolist(), n, p)[1])
    kernel = nullspace_mod_p(a, p)
    assert kernel.shape == (n - rank, n)
    assert not np.any((a @ kernel.T) % p)
    assert rank_mod_p(kernel, p) == n - rank


@st.composite
def systems(draw):
    """``(p, a, b)`` for ``a x = b``: half consistent by construction, half
    with a random right-hand side."""
    p, a = draw(matrices())
    m, n = a.shape
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        return p, a, [int(v) for v in (a @ np.array(x0, dtype=np.int64)) % p]
    return p, a, draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))


@example((2, np.zeros((0, 3), dtype=np.int64), []))
@example((3, np.zeros((3, 0), dtype=np.int64), [0, 1, 0]))
@example((5, np.zeros((3, 4), dtype=np.int64), [0, 0, 0]))
@given(systems())
def test_solve_finds_solution_or_reports_none(system):
    p, a, b = system
    n = a.shape[1]
    rank_a = len(reference_rref(a.tolist(), n, p)[1])
    augmented = [row + [v] for row, v in zip(a.tolist(), b)]
    consistent = len(reference_rref(augmented, n + 1, p)[1]) == rank_a
    x = solve_mod_p(a, b, p)
    if not consistent:
        assert x is None
        return
    assert x is not None and x.shape == (n,)
    assert not np.any((a @ x - np.array(b, dtype=np.int64)) % p)


def test_solve_on_a_matrix_without_rows_has_one_entry_per_unknown():
    x = solve_mod_p(np.zeros((0, 3), dtype=np.int64), [], 2)
    assert x is not None and x.tolist() == [0, 0, 0]
    assert nullspace_mod_p(np.zeros((0, 3), dtype=np.int64), 2).shape == (3, 3)


# ----------------------------------------------------------------------
# the int64 bound on the modulus
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


def test_rank_at_the_largest_supported_prime_matches_rank_over_q():
    # Every minor of these 6x6 matrices is far below MAX_PRIME in absolute
    # value (Hadamard), so the two ranks must agree.  Every other matrix is
    # made singular.
    rng = np.random.default_rng(0)
    for k in range(200):
        a = rng.integers(-3, 4, size=(6, 6))
        if k % 2:
            a[:, 5] = a[:, 0] + a[:, 1]
        assert rank_mod_p(a.tolist(), MAX_PRIME) == rank_over_q(a.tolist())


def test_bar_homology_at_the_largest_supported_prime_follows_universal_coefficients():
    algebra = bar_source_algebra(1, 1)
    integral = integral_homology_table(algebra, 6)
    expected = dimensions_mod_p_from_integral(integral, MAX_PRIME)
    got = {
        (i, d): dim
        for d in range(7)
        for i, dim in homology_over_Fp(algebra, d, MAX_PRIME).items()
    }
    assert got == expected
