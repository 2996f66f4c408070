"""Dense linear algebra over a prime field F_p.

Everything here rests on one elimination routine, :func:`_echelon`: forward
Gaussian elimination on an ``int64`` array with entries already reduced into
``[0, p)``, returning the pivot columns.  Ranks are its pivot count; the
reduced row echelon form adds back-substitution over the pivot rows; kernels
and solutions are read off the reduced form.  The mod-p homology ring
(:class:`extbar.homology.FpHomologyRing`) builds its arrays from sparse
boundary columns (:func:`columns_mod_p`, :func:`rows_as_columns`), because it
needs kernels and solutions; mod-p homology dimensions take their ranks from
the sparse elimination in :mod:`extbar.homology` and never fill an array.

numpy is loaded on first use, by the functions that build or read an array,
and by nothing else: importing this module (for :data:`MAX_PRIME`, say)
does not load it, so neither does any command-line run.

Products of two entries are formed in ``int64``, so the modulus is bounded by
:data:`MAX_PRIME`; larger primes raise ``ValueError``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

#: The largest prime p with (p - 1)^2 <= 2^63 - 1: above it, a product of two
#: entries in ``[0, p)`` can overflow ``int64`` and ranks come out wrong.
MAX_PRIME = 3037000493


def as_modp_array(rows: Sequence[Sequence[int]], p: int) -> np.ndarray:
    """Reduce arbitrary-precision integer rows into an ``int64`` array mod p.

    An ``int64`` array is reduced in one numpy operation; the result is
    always a new array.
    """
    import numpy as np

    if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
        return rows % p
    if not len(rows):
        return np.zeros((0, 0), dtype=np.int64)
    return np.array([[int(v) % p for v in row] for row in rows], dtype=np.int64)


def columns_mod_p(columns: Sequence[Mapping[int, int]], n_rows: int, p: int) -> np.ndarray:
    """The ``n_rows x len(columns)`` ``int64`` array mod p of a matrix given
    by sparse columns (row index -> integer), filled entry by nonzero entry."""
    import numpy as np

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


def rows_as_columns(blocks: Sequence[np.ndarray], length: int) -> np.ndarray:
    """A new ``length x k`` ``int64`` array whose columns are the rows of the
    ``int64`` arrays ``blocks``, one block after another; empty blocks (an
    empty tuple too) add nothing."""
    import numpy as np

    rows = np.vstack([np.zeros((0, length), dtype=np.int64), *(b for b in blocks if len(b))])
    return rows.T.copy()


def _echelon(a: np.ndarray, p: int) -> List[int]:
    """Bring an ``int64`` array with entries in ``[0, p)`` to row echelon
    form in place, with unit pivots; return the pivot columns.

    The pivot columns are the greedy first independent columns of ``a``.
    """
    import numpy as np

    if p > MAX_PRIME:
        raise ValueError(f"prime {p} exceeds {MAX_PRIME}, the largest supported modulus")
    m, n = a.shape
    pivots: List[int] = []
    for col in range(n):
        rank = len(pivots)
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
        pivots.append(col)
    return pivots


def rank_mod_p(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix over F_p."""
    return len(_echelon(as_modp_array(matrix, p), p))


def rref_mod_p(matrix: Sequence[Sequence[int]], p: int) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Reduced row echelon form over F_p, zero rows dropped; returns
    (matrix, pivot columns)."""
    import numpy as np

    a = as_modp_array(matrix, p)
    pivots = _echelon(a, p)
    for k in reversed(range(len(pivots))):
        above = np.nonzero(a[:k, pivots[k]])[0]
        if above.size:
            a[above] = (a[above] - np.outer(a[above, pivots[k]], a[k])) % p
    return a[: len(pivots)], tuple(pivots)


def nullspace_mod_p(matrix: Sequence[Sequence[int]], p: int) -> np.ndarray:
    """Rows spanning the right kernel of the matrix over F_p."""
    import numpy as np

    red, pivots = rref_mod_p(matrix, p)
    n = red.shape[1]
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
    import numpy as np

    a = as_modp_array(matrix, p)
    b = np.array([int(v) % p for v in rhs], dtype=np.int64)
    n = a.shape[1]
    red, pivots = rref_mod_p(np.hstack([a, b.reshape(-1, 1)]), p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = red[r, n]
    return x
