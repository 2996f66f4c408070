"""Dense linear algebra over a prime field F_p.

The rank computation is the hot kernel of every mod-p homology run, so it
ships in two interchangeable implementations:

* a JIT-compiled elimination loop (numba ``@njit``), used when numba is
  importable and the environment variable ``EXTBAR_NO_JIT`` is not ``"1"``;
* a vectorized pure-numpy fallback with identical results.

``benchmarks/bench_modp.py`` compares the two.  Everything here works on
``int64`` arrays with entries already reduced into ``[0, p)``; the primes in
play are tiny, so ``int64`` intermediate products cannot overflow.  Homology
builds those arrays straight from sparse boundary columns
(:func:`columns_mod_p`), touching only the nonzero entries.
"""

from __future__ import annotations

import os
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without the extra
    _HAVE_NUMBA = False


def jit_enabled() -> bool:
    """True when the compiled elimination kernel will be used."""
    return _HAVE_NUMBA and os.environ.get("EXTBAR_NO_JIT", "") != "1"


def as_modp_array(rows: Sequence[Sequence[int]], p: int) -> np.ndarray:
    """Reduce arbitrary-precision integer rows into an ``int64`` array mod p.

    An ``int64`` array is reduced in one numpy operation; the result is
    always a new array.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
        return rows % p
    if not len(rows):
        return np.zeros((0, 0), dtype=np.int64)
    return np.array([[int(v) % p for v in row] for row in rows], dtype=np.int64)


def columns_mod_p(columns: Sequence[Mapping[int, int]], n_rows: int, p: int) -> np.ndarray:
    """The ``n_rows x len(columns)`` ``int64`` array mod p of a matrix given
    by sparse columns (row index -> integer), filled entry by nonzero entry."""
    rows: List[int] = []
    cols: List[int] = []
    vals: List[int] = []
    for j, column in enumerate(columns):
        for r, c in column.items():
            rows.append(r)
            cols.append(j)
            vals.append(c % p)
    a = np.zeros((n_rows, len(columns)), dtype=np.int64)
    a[rows, cols] = vals
    return a


if _HAVE_NUMBA:

    @njit(cache=True)
    def _inv_mod_jit(a: int, p: int) -> int:
        # Extended Euclid; a is nonzero mod p.
        t, new_t = 0, 1
        r, new_r = p, a % p
        while new_r != 0:
            q = r // new_r
            t, new_t = new_t, t - q * new_t
            r, new_r = new_r, r - q * new_r
        return t % p

    @njit(cache=True)
    def _rank_kernel_jit(a: np.ndarray, p: int) -> int:
        m, n = a.shape
        rank = 0
        for col in range(n):
            if rank == m:
                break
            piv = -1
            for r in range(rank, m):
                if a[r, col] != 0:
                    piv = r
                    break
            if piv < 0:
                continue
            if piv != rank:
                for c in range(col, n):
                    tmp = a[rank, c]
                    a[rank, c] = a[piv, c]
                    a[piv, c] = tmp
            inv = _inv_mod_jit(a[rank, col], p)
            for c in range(col, n):
                a[rank, c] = (a[rank, c] * inv) % p
            for r in range(rank + 1, m):
                f = a[r, col]
                if f != 0:
                    for c in range(col, n):
                        a[r, c] = (a[r, c] - f * a[rank, c]) % p
            rank += 1
        return rank


def _rank_kernel_numpy(a: np.ndarray, p: int) -> int:
    m, n = a.shape
    rank = 0
    for col in range(n):
        if rank == m:
            break
        hits = np.nonzero(a[rank:, col])[0]
        if hits.size == 0:
            continue
        piv = rank + int(hits[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        below = rank + 1 + np.nonzero(a[rank + 1 :, col])[0]
        if below.size:
            a[below] = (a[below] - np.outer(a[below, col], a[rank])) % p
        rank += 1
    return rank


def _rank(a: np.ndarray, p: int) -> int:
    """Rank of an ``int64`` array with entries in ``[0, p)``; overwrites it."""
    if a.size == 0:
        return 0
    if jit_enabled():
        return int(_rank_kernel_jit(a, p))
    return _rank_kernel_numpy(a, p)


def rank_mod_p(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix over F_p."""
    return _rank(as_modp_array(matrix, p), p)


def rank_of_columns_mod_p(columns: Sequence[Mapping[int, int]], n_rows: int, p: int) -> int:
    """Rank over F_p of a matrix given by sparse columns (see :func:`columns_mod_p`)."""
    return _rank(columns_mod_p(columns, n_rows, p), p)


def rref_mod_p(matrix: Sequence[Sequence[int]], p: int) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Reduced row echelon form over F_p; returns (matrix, pivot columns)."""
    a = as_modp_array(matrix, p)
    if a.size == 0:
        return a, ()
    m, n = a.shape
    pivots: List[int] = []
    rank = 0
    for col in range(n):
        if rank == m:
            break
        hits = np.nonzero(a[rank:, col])[0]
        if hits.size == 0:
            continue
        piv = rank + int(hits[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        others = np.nonzero(a[:, col])[0]
        for r in others:
            if r != rank:
                a[r] = (a[r] - a[r, col] * a[rank]) % p
        pivots.append(col)
        rank += 1
    return a[: len(pivots)], tuple(pivots)


def nullspace_mod_p(matrix: Sequence[Sequence[int]], p: int) -> np.ndarray:
    """Rows spanning the right kernel of the matrix over F_p."""
    a = as_modp_array(matrix, p)
    if a.size == 0:
        n = a.shape[1] if a.ndim == 2 else 0
        return np.eye(n, dtype=np.int64)
    n = a.shape[1]
    red, pivots = rref_mod_p(a, p)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis = np.zeros((len(free_cols), n), dtype=np.int64)
    for k, fc in enumerate(free_cols):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-red[r, fc]) % p
    return basis


def solve_mod_p(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int], p: int
) -> Optional[np.ndarray]:
    """One solution of ``matrix @ x = rhs`` over F_p, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    a = as_modp_array(matrix, p)
    b = np.array([int(v) % p for v in rhs], dtype=np.int64)
    if a.size == 0:
        return None if np.any(b) else np.zeros(0, dtype=np.int64)
    aug = np.hstack([a, b.reshape(-1, 1)])
    red, pivots = rref_mod_p(aug, p)
    n = a.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = red[r, n]
    return x
