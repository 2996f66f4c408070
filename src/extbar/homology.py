"""Exact homology of weight slices: Smith normal form over Z, finitely
generated abelian groups, mod-p dimensions, and the Kunneth assembly of
weighted homology tables.

Each homology computation reads its weight slice's sparse boundary columns,
``{row: coefficient}`` per basis monomial, and the blocks it reduces them
by from the algebra (:meth:`~extbar.algebra.WdgAlgebra._checked_slice`),
which compiles the columns once, checks d^2 = 0 on them as the exact sparse
product ``D_{i-1} D_i = 0`` over its ring, and keeps them with their blocks
only once they pass.  So every slice that integral and mod-p slice homology
read has passed the check.
They read the slice's size in each degree from
:meth:`~extbar.algebra.WdgAlgebra.dims`, and its basis monomials not at
all.  By default the differential of every basis monomial is evaluated once
(:func:`boundary_columns`); the bar construction instead builds each slice's
columns, and its sizes, from its layout and the slices below it.  Since
:func:`extbar.extract.bar_source_algebra` shares one tower per generator
rank per process, a bar slice is compiled and checked once per process,
whatever the prime, and only its reduction runs again.  There is one
reduction routine per ring, and neither densifies anything.  Over Z, a sparse elimination
(:func:`_eliminate`) keeps rows and columns as dicts and takes one pivot
step, on units from a Markowitz queue while there are any and then on the
smallest entry; Smith normal form is a gcd/lcm pass over its diagonal
(:func:`smith_normal_form_of_columns`), and slice homology reads its groups
straight off the diagonal.  Over F_p, a lowest-pivot column reduction
(:func:`_pivot_rows_mod_p`) keeps each column as an int bitmask over F_2
and as a dict otherwise; a mod-p rank is its pivot count
(:func:`rank_of_columns_mod_p`).  Slice homology reduces a compiled slice
once, from the top degree down (:func:`_reduce_slice`): before ``D_i`` is
reduced, its columns at the pivot rows of ``D_{i+1}`` (over Z, those of its
unit pivots) are cleared, because up to an invertible change of basis they
are boundaries and ``D_i`` sends them to zero.  When the algebra grades a
slice more finely than by weight
(:meth:`~extbar.algebra.WdgAlgebra.block_keys`, the
multi-weight over a free algebra on several generators), the slice is a
direct sum of blocks: the check also asserts that no entry leaves its
column's block, and the reduction runs block by block, one block for each
orbit of blocks with isomorphic complexes, its diagonal counted once per
block of the orbit, and only the columns of those blocks are compiled and
checked for it, found in one walk of the slice's block keys; an F_2 mask
numbers the rows within its block, so its size follows the block, not the
slice.  Nothing here mutates the columns an algebra keeps.

A *weighted table* is a mapping ``(degree, weight) -> AbelianGroup`` holding
the homology of a weighted complex, with trivial groups omitted.  Tables are
what the closed-form predictors produce and what gets compared against
slice-by-slice computations.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .algebra import Block, Column, InternalAssertionError, WdgAlgebra, boundary_columns
from .modp import check_prime

Matrix = List[List[int]]
TableKey = Tuple[int, int]


# ----------------------------------------------------------------------
# Smith normal form over Z
# ----------------------------------------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], int]:
    """Invariant factors ``d_1 | d_2 | ...`` (including 1s) and the rank of a
    dense matrix given as rows: :func:`smith_normal_form_of_columns` on its
    nonzero entries.

    >>> smith_normal_form([[2, 4], [6, 8]])
    ((2, 4), 2)
    >>> smith_normal_form([[1]])
    ((1,), 1)
    """
    n = len(matrix[0]) if len(matrix) else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix rows must have equal length")
    columns: List[Column] = [{} for _ in range(n)]
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                columns[j][i] = int(v)
    return smith_normal_form_of_columns(columns)


def _eliminate(columns: Sequence[Mapping[int, int]]) -> Tuple[List[int], int, List[int]]:
    """Sparse elimination over Z of the matrix whose ``j``-th column is
    ``columns[j]``.  Returns the diagonal it reduces the matrix to, one
    entry per pivot, the bit length of the largest entry the matrix ever
    held, and the row of every unit pivot taken before the first non-unit
    one, in pivot order.

    Rows and columns are kept as ``{index: entry}`` dicts.  The input is
    not modified.

    Every step picks a pivot ``v`` at ``(r, c)`` and clears column ``c`` by
    row operations: every other row ``i`` of it becomes ``row_i - f row_r``
    with the floor quotient ``f = a_ic // v``.  The pivot is chosen one of
    two ways:

    * A *unit* (+-1) from a heap keyed by Markowitz cost
      ``(len(row) - 1) * (len(col) - 1)``, then row, then column.  A popped
      entry that is gone or no longer a unit is skipped; one whose cost has
      grown is pushed back with its new cost.  Dividing by a unit leaves no
      remainder, so the row update is the exact Schur complement, and the
      column operations that would clear row ``r`` change nothing else: row
      ``r`` and column ``c`` are dropped and the diagonal gets a 1.  The
      units the update creates are pushed.
    * Once the heap is empty, the entry of smallest absolute value in the
      whole remaining matrix (ties broken by Markowitz cost, then by row and
      column index).  Its row is then cleared by column operations too; a
      nonzero remainder in either is smaller than the pivot and sends the
      loop back to choose again, this time the smallest entry of that
      pivot's column and row only, where the remainders are.  Each such
      pivot is strictly smaller than the one before, so the chain ends.  A
      pivot left alone in its row and column is recorded as ``|pivot|`` and
      both are dropped, and the next chain starts from the whole matrix
      again.  Taking the smallest entry is what keeps the coefficients
      small.  From the first such pivot on, nothing is pushed and no pivot
      row is reported.

    The unit pivots taken before that are Schur complements on units, so
    the block of the input on their rows and columns has determinant +-1;
    that is what lets :func:`_reduce_slice` clear their rows from the
    degree below.  Pivots of smallest entry span no unimodular block, even
    when the entry is 1.
    """
    cols: Dict[int, Dict[int, int]] = {}
    rows: Dict[int, Dict[int, int]] = {}
    top = 0
    for j, column in enumerate(columns):
        for i, v in column.items():
            if v:
                cols.setdefault(j, {})[i] = v
                rows.setdefault(i, {})[j] = v
                top = max(top, abs(v))
    diagonal: List[int] = []
    units: List[int] = []
    heap = [
        ((len(rows[i]) - 1) * (len(col) - 1), i, j)
        for j, col in cols.items()
        for i, v in col.items()
        if v == 1 or v == -1
    ]
    heapq.heapify(heap)
    only_units = True  # no smallest-entry pivot yet: push new units, report rows
    remainder = False  # the last pivot left a remainder in its row or column
    while cols:
        if heap:
            cost, r, c = heapq.heappop(heap)
            pivot_row = rows.get(r)
            v = pivot_row.get(c, 0) if pivot_row else 0
            if not (v == 1 or v == -1):
                continue
            now = (len(pivot_row) - 1) * (len(cols[c]) - 1)
            if now > cost:
                heapq.heappush(heap, (now, r, c))
                continue
        else:
            only_units = False
            best: tuple = (math.inf,)
            if remainder:
                # the last pivot's remainders are all in its column and row
                scan = [(c, cols[c])] + [(j, {r: x}) for j, x in pivot_row.items()]
            else:
                scan = cols.items()
            for j, col in scan:
                cost = len(cols[j]) - 1
                for i, v in col.items():
                    a = v if v > 0 else -v
                    if a <= best[0]:
                        key = (a, (len(rows[i]) - 1) * cost, i, j)
                        if key < best:
                            best = key
            _, _, r, c = best
            pivot_row = rows[r]
            v = pivot_row[c]
        unit = v == 1 or v == -1
        remainder = False
        for i in [i for i in cols[c] if i != r]:
            row = rows[i]
            f = row[c] // v
            if not f:
                # 0 <= row[c] / v < 1: a pivot taken as the smallest of its
                # row only can meet a smaller entry in its column
                remainder = True
                continue
            fresh = []
            for j, e in pivot_row.items():
                old = row.get(j, 0)
                x = old - f * e
                if not -top <= x <= top:
                    top = abs(x)
                if x:
                    row[j] = cols[j][i] = x
                    if only_units and (x == 1 or x == -1) and not (old == 1 or old == -1):
                        fresh.append(j)
                else:
                    del row[j], cols[j][i]
            if c in row:
                remainder = True
            elif not row:
                del rows[i]
            for j in fresh:
                heapq.heappush(heap, ((len(row) - 1) * (len(cols[j]) - 1), i, j))
        if not (unit or remainder):
            # column c is now {r: v}, so col_j -= q * col_c only changes (r, j)
            for j in [j for j in pivot_row if j != c]:
                x = pivot_row[j] % v
                if x:
                    pivot_row[j] = cols[j][r] = x
                    remainder = True
                else:
                    del pivot_row[j], cols[j][r]
                    if not cols[j]:
                        del cols[j]
        if remainder:
            continue
        for j in pivot_row:
            col = cols[j]
            del col[r]
            if not col:
                del cols[j]
        del rows[r]
        diagonal.append(1 if unit else abs(v))
        if only_units:
            units.append(r)
    return diagonal, top.bit_length(), units


def smith_normal_form_of_columns(
    columns: Sequence[Mapping[int, int]],
) -> Tuple[Tuple[int, ...], int]:
    """Invariant factors ``d_1 | d_2 | ...`` (including 1s) and the rank of
    the integer matrix whose ``j``-th column is ``columns[j]``, a
    ``{row: coefficient}`` map as
    :meth:`~extbar.algebra.WdgAlgebra.slice_columns` gives them.

    A gcd/lcm pass over the diagonal of :func:`_eliminate`.  The input is
    not modified.
    """
    diagonal = _eliminate(columns)[0]
    ones = diagonal.count(1)
    factors = [d for d in diagonal if d > 1]
    for k in range(len(factors)):
        for l in range(k + 1, len(factors)):
            g = math.gcd(factors[k], factors[l])
            factors[k], factors[l] = g, factors[k] // g * factors[l]
    return (1,) * ones + tuple(factors), len(diagonal)


def _pivot_rows_mod_p(
    columns: Sequence[Mapping[int, int]], p: int, rows: Optional[Sequence[int]] = None
) -> List[int]:
    """The pivot rows, in pivot order, of the lowest-pivot column reduction
    over F_p of the integer matrix whose ``j``-th column is ``columns[j]``
    (Zomorodian and Carlsson, *Computing persistent homology*, 2005).  Their
    number is the rank.  The input is not modified.

    The columns are taken in input order.  A column's *low* is its highest
    row.  While a column is nonzero and a stored column has its low, the
    multiple of the stored column that cancels that row is subtracted from
    it; a column whose low is new is stored under that row, its pivot row.
    So the columns stored are those independent of the columns before them,
    and the block of the input on the pivot rows and those columns is
    invertible over F_p, as :func:`_reduce_slice` needs.

    Over F_2 a column is the int bitmask of its odd entries: its low is
    ``x.bit_length() - 1`` and subtracting a column is one XOR.  A mask is
    as long as its highest row is high, so when the columns live on a block
    of the rows, ``rows`` lists that block's rows and a row's bit is its
    position in the list.  The low rows order the columns in the same way
    as long as ``rows`` ascends.  For odd ``p`` a column is a
    ``{row: entry}`` dict with entries in ``[1, p)``, stored as it was
    reduced, and ``rows`` is not needed; the multiple of a stored column
    ``y`` that cancels the low of ``x`` is ``x[low] / y[low]`` mod p, read
    off the two lows.
    """
    if p == 2:
        masks: Dict[int, int] = {}
        local = None if rows is None else {r: k for k, r in enumerate(rows)}
        for column in columns:
            x = 0
            # two loops, so that a whole slice pays no lookup per entry
            if local is None:
                for i, v in column.items():
                    if v & 1:
                        x |= 1 << i
            else:
                for i, v in column.items():
                    if v & 1:
                        x |= 1 << local[i]
            while x:
                low = x.bit_length() - 1
                y = masks.get(low)
                if y is None:
                    masks[low] = x
                    break
                x ^= y
        return list(masks) if rows is None else [rows[k] for k in masks]
    stored: Dict[int, Dict[int, int]] = {}
    for column in columns:
        x = {}
        for i, v in column.items():
            v %= p
            if v:
                x[i] = v
        while x:
            low = max(x)
            y = stored.get(low)
            if y is None:
                stored[low] = x
                break
            f = x[low] * pow(y[low], -1, p) % p
            for i, e in y.items():
                v = (x.get(i, 0) - f * e) % p
                if v:
                    x[i] = v
                else:
                    del x[i]
    return list(stored)


def rank_of_columns_mod_p(columns: Sequence[Mapping[int, int]], p: int) -> int:
    """Rank over F_p of the integer matrix whose ``j``-th column is
    ``columns[j]``: the pivot count of :func:`_pivot_rows_mod_p`."""
    check_prime(p)
    return len(_pivot_rows_mod_p(columns, p))


# ----------------------------------------------------------------------
# finitely generated abelian groups
# ----------------------------------------------------------------------


def _factorize(n: int) -> Dict[int, int]:
    """Prime factorization by trial division (inputs here are small)."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: Dict[int, int] = {}
    for p in itertools.chain((2,), itertools.count(3, 2)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group in primary decomposition.

    ``primary`` lists ``(p, exponents)`` with primes ascending and each
    exponent tuple sorted descending, so ``Z/4 + Z/2 + Z/3`` is stored as
    ``((2, (2, 1)), (3, (1,)))``.  Values are normalized on construction via
    the factory methods; equality is therefore structural.
    """

    free_rank: int = 0
    primary: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()

    # -- construction ---------------------------------------------------

    @staticmethod
    def _from_parts(free_rank: int, parts: Mapping[int, Iterable[int]]) -> "AbelianGroup":
        primary = tuple(
            (p, tuple(sorted((e for e in parts[p] if e > 0), reverse=True)))
            for p in sorted(parts)
        )
        return AbelianGroup(free_rank, tuple((p, es) for p, es in primary if es))

    @staticmethod
    def zero() -> "AbelianGroup":
        return AbelianGroup(0, ())

    @staticmethod
    def free(rank: int) -> "AbelianGroup":
        if rank < 0:
            raise ValueError("rank must be >= 0")
        return AbelianGroup(rank, ())

    @staticmethod
    def cyclic(n: int) -> "AbelianGroup":
        """Z for n = 0, else Z/n."""
        if n == 0:
            return AbelianGroup.free(1)
        parts = {p: [e] for p, e in _factorize(abs(n)).items()}
        return AbelianGroup._from_parts(0, parts)

    @staticmethod
    def from_invariant_factors(
        factors: Iterable[int], free_rank: int = 0
    ) -> "AbelianGroup":
        parts: Dict[int, List[int]] = {}
        for d in factors:
            if d == 0:
                free_rank += 1
                continue
            for p, e in _factorize(abs(d)).items():
                parts.setdefault(p, []).append(e)
        return AbelianGroup._from_parts(free_rank, parts)

    @staticmethod
    def sum_of(groups: Iterable["AbelianGroup"]) -> "AbelianGroup":
        free = 0
        parts: Dict[int, List[int]] = {}
        for g in groups:
            free += g.free_rank
            for p, es in g.primary:
                parts.setdefault(p, []).extend(es)
        return AbelianGroup._from_parts(free, parts)

    # -- queries ---------------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.primary

    def exponents_of(self, p: int) -> Tuple[int, ...]:
        for q, es in self.primary:
            if q == p:
                return es
        return ()

    def p_torsion_count(self, p: int) -> int:
        """Number of cyclic p-power summands."""
        return len(self.exponents_of(p))

    def p_primary_part(self, p: int) -> "AbelianGroup":
        """Torsion summands at ``p`` only; drops the free part."""
        es = self.exponents_of(p)
        return AbelianGroup(0, ((p, es),) if es else ())

    def invariant_factors(self) -> Tuple[int, ...]:
        """Torsion in divisibility order ``d_1 | d_2 | ...`` (ascending)."""
        depth = max((len(es) for _, es in self.primary), default=0)
        out = []
        for k in range(depth):
            d = 1
            for p, es in self.primary:
                if k < len(es):
                    d *= p ** es[k]
            out.append(d)
        return tuple(reversed(out))

    def __str__(self) -> str:
        parts: List[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors())
        return " + ".join(parts) if parts else "0"

    # -- arithmetic --------------------------------------------------------

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup.sum_of((self, other))

    def tensor(self, other: "AbelianGroup") -> "AbelianGroup":
        """Tensor product over Z."""
        free = self.free_rank * other.free_rank
        parts: Dict[int, List[int]] = {}
        for p, es in other.primary:
            parts.setdefault(p, []).extend(es * self.free_rank)
        for p, es in self.primary:
            parts.setdefault(p, []).extend(es * other.free_rank)
            fs = other.exponents_of(p)
            parts[p].extend(min(e, f) for e in es for f in fs)
        return AbelianGroup._from_parts(free, parts)

    def tor(self, other: "AbelianGroup") -> "AbelianGroup":
        """Torsion product Tor_1^Z; free parts contribute nothing."""
        parts: Dict[int, List[int]] = {}
        for p, es in self.primary:
            fs = other.exponents_of(p)
            if fs:
                parts.setdefault(p, []).extend(min(e, f) for e in es for f in fs)
        return AbelianGroup._from_parts(0, parts)


# ----------------------------------------------------------------------
# boundary columns of a weight slice
# ----------------------------------------------------------------------


def _dense(columns: Sequence[Column], n_rows: int) -> Matrix:
    rows = [[0] * len(columns) for _ in range(n_rows)]
    for j, column in enumerate(columns):
        for r, c in column.items():
            rows[r][j] = c
    return rows


def boundary_matrix(algebra: WdgAlgebra, weight: int, degree: int) -> Matrix:
    """Dense matrix of the differential out of ``degree`` in the given
    weight slice: :func:`boundary_columns` laid out as rows.

    Columns index the degree-``degree`` basis, rows the degree-``degree - 1``
    basis.  Raises :class:`InternalAssertionError` if a differential leaves
    the expected bidegree.
    """
    n_rows = len(algebra.weight_slice(weight).get(degree - 1, ()))
    return _dense(boundary_columns(algebra, weight, degree), n_rows)


def check_boundary_squares_to_zero(algebra: WdgAlgebra, weight: int) -> None:
    """Verify d(d(m)) = 0 for every basis monomial of the slice whose
    column homology reads, once per compiled slice
    (:meth:`~extbar.algebra.WdgAlgebra.slice_columns`)."""
    algebra.slice_columns(weight)


# ----------------------------------------------------------------------
# homology of a weight slice
# ----------------------------------------------------------------------


def _reduce_slice(
    columns: Mapping[int, Sequence[Optional[Column]]],
    p: int,
    blocks: Optional[Sequence[Block]] = None,
) -> Dict[int, List[int]]:
    """The diagonal of every boundary matrix ``D_i`` of a complex, given as
    ``{degree: columns}``: over Z for ``p == 0`` the :func:`_eliminate`
    diagonal, over F_p one 1 per pivot of :func:`_pivot_rows_mod_p`.  It is
    reduced one block at a time and with the *clearing* of Chen and Kerber
    (*Persistent homology computation with a twist*, 2011).

    ``blocks`` lists ``(indices, multiplicity)``: the columns of a block by
    degree, which the differential must send into the rows of the same
    block, and the number of blocks with its homology it stands for; its
    diagonal is counted that many times.  A column in no block is not read
    and may be ``None``.  ``None`` is the whole complex as one block.
    Within a block the degrees are reduced from the top down, and before
    ``D_i`` is reduced its columns at the pivot rows ``R`` of ``D_{i+1}``
    are dropped: over Z the rows of its unit pivots, over F_p all of them.
    The rows are keyed by degree, so a gap in the degrees clears nothing.
    Each diagonal has the rank and the invariant factors of the whole
    ``D_i``, which is all that homology needs.

    Why this is exact: let ``K`` be the columns of ``D_{i+1}`` whose pivots
    have the rows ``R``.  The block ``D_{i+1}[R, K]`` is invertible over
    the ring.  Over Z the unit pivots come from Schur complements on units,
    so it has determinant +-1.  Over F_p, order ``K`` by the pivot rows:
    the reduced columns on ``R x K``, which :func:`_pivot_rows_mod_p`
    stores as they are, are then triangular with a nonzero diagonal, and
    they are ``D_{i+1}[R, K]`` times a matrix that is unitriangular in
    input order, since each column lost only multiples of the stored
    columns of ``K`` before it.  Hence the columns ``K`` of ``D_{i+1}``
    together with the unit vectors ``e_j`` for ``j`` not in ``R`` form a
    basis of ``C_i``.  Since ``D_i D_{i+1} = 0``, ``D_i`` has the same
    image as ``D_i`` restricted to the columns outside ``R``; hence the
    same cokernel, so the same rank and the same invariant factors.  This
    relies on ``d^2 = 0``, which is why homology reduces only slices that
    passed the check (:meth:`~extbar.algebra.WdgAlgebra.slice_columns`).

    Over Z it fails for smallest-entry pivots, which span no unimodular
    block: with ``D_{i+1}`` the column ``(2, 3)`` and ``D_i`` the row
    ``(3, -2)`` the homology is 0, but ``D_i`` without column 0 has
    cokernel Z/2, and without column 1, Z/3.

    The argument holds block by block: the pivot rows of a block's
    ``D_{i+1}`` lie in its rows, and ``D_i`` restricted to the block is
    again a differential that squares to zero.
    """
    whole = blocks is None
    if whole:
        blocks = [({i: range(len(cols)) for i, cols in columns.items()}, 1)]
    diagonals: Dict[int, List[int]] = {i: [] for i in columns}
    for indices, multiplicity in blocks:
        pivot_rows: Dict[int, List[int]] = {}
        for i in sorted(indices, reverse=True):
            cleared = set(pivot_rows.pop(i, ()))
            cols = columns[i]
            kept = [cols[j] for j in indices[i] if j not in cleared]
            if p:
                below = None if whole else indices.get(i - 1, ())
                rows = pivot_rows[i - 1] = _pivot_rows_mod_p(kept, p, below)
                diagonal = [1] * len(rows)
            else:
                diagonal, _, pivot_rows[i - 1] = _eliminate(kept)
            diagonals[i].extend(diagonal * multiplicity)
    return diagonals


def homology_over_Z(algebra: WdgAlgebra, weight: int) -> Dict[int, AbelianGroup]:
    """Integral homology of one weight slice, trivial degrees omitted."""
    dims = algebra.dims(weight)
    columns, blocks = algebra._checked_slice(weight)
    diagonals = _reduce_slice(columns, 0, blocks)
    out: Dict[int, AbelianGroup] = {}
    for i, n in dims.items():
        below = diagonals.get(i + 1, ())
        free = n - len(diagonals[i]) - len(below)
        if free < 0:
            raise InternalAssertionError(f"negative free rank at degree {i}")
        torsion = [d for d in below if d > 1]
        group = AbelianGroup.from_invariant_factors(torsion, free_rank=free)
        if not group.is_trivial:
            out[i] = group
    return out


def homology_over_Fp(algebra: WdgAlgebra, weight: int, p: int) -> Dict[int, int]:
    """Dimensions of mod-p homology of one weight slice (zeros omitted)."""
    check_prime(p)
    dims = algebra.dims(weight)
    columns, blocks = algebra._checked_slice(weight)
    diagonals = _reduce_slice(columns, p, blocks)
    ranks = {i: len(d) for i, d in diagonals.items()}
    out: Dict[int, int] = {}
    for i, n in dims.items():
        dim = n - ranks[i] - ranks.get(i + 1, 0)
        if dim < 0:
            raise InternalAssertionError(f"negative mod-{p} dimension at degree {i}")
        if dim:
            out[i] = dim
    return out


def integral_homology_table(
    algebra: WdgAlgebra, weight_max: int
) -> Dict[TableKey, AbelianGroup]:
    """Weighted table of integral homology for all weights up to the cap."""
    out: Dict[TableKey, AbelianGroup] = {}
    for d in range(weight_max + 1):
        for i, g in homology_over_Z(algebra, d).items():
            out[(i, d)] = g
    return out


# ----------------------------------------------------------------------
# weighted tables: Kunneth, unitalization, universal coefficients
# ----------------------------------------------------------------------


def kunneth(
    left: Mapping[TableKey, AbelianGroup],
    right: Mapping[TableKey, AbelianGroup],
    weight_max: int,
) -> Dict[TableKey, AbelianGroup]:
    """Homology table of a tensor product of complexes of free modules:
    tensor terms in degree ``i + j`` plus Tor terms in degree ``i + j + 1``,
    truncated at ``weight_max``."""
    acc: Dict[TableKey, List[AbelianGroup]] = {}
    for (i1, d1), g1 in left.items():
        for (i2, d2), g2 in right.items():
            d = d1 + d2
            if d > weight_max:
                continue
            t = g1.tensor(g2)
            if not t.is_trivial:
                acc.setdefault((i1 + i2, d), []).append(t)
            tt = g1.tor(g2)
            if not tt.is_trivial:
                acc.setdefault((i1 + i2 + 1, d), []).append(tt)
    return {k: AbelianGroup.sum_of(v) for k, v in sorted(acc.items())}


def kunneth_fold(
    tables: Sequence[Mapping[TableKey, AbelianGroup]], weight_max: int
) -> Dict[TableKey, AbelianGroup]:
    """Kunneth-multiply a list of tables left to right.

    An empty list folds to the table of the ground ring: Z at (0, 0).
    """
    out: Dict[TableKey, AbelianGroup] = {(0, 0): AbelianGroup.free(1)}
    for t in tables:
        out = kunneth(out, t, weight_max)
    return out


def p_primary_unitalize(
    table: Mapping[TableKey, AbelianGroup], p: int
) -> Dict[TableKey, AbelianGroup]:
    """Keep only the p-primary torsion of each entry and reinstall Z at (0,0)."""
    out: Dict[TableKey, AbelianGroup] = {(0, 0): AbelianGroup.free(1)}
    for key, g in sorted(table.items()):
        if key == (0, 0):
            continue
        part = g.p_primary_part(p)
        if not part.is_trivial:
            out[key] = part
    return out


def dimensions_mod_p_from_integral(
    table: Mapping[TableKey, AbelianGroup], p: int
) -> Dict[TableKey, int]:
    """Mod-p dimensions predicted by universal coefficients:
    free rank plus p-torsion here plus p-torsion one degree below."""
    out: Dict[TableKey, int] = {}
    for (i, d), g in table.items():
        n = g.free_rank + g.p_torsion_count(p)
        if n:
            out[(i, d)] = out.get((i, d), 0) + n
        below = g.p_torsion_count(p)
        if below:
            out[(i + 1, d)] = out.get((i + 1, d), 0) + below
    return dict(sorted((k, v) for k, v in out.items() if v))
