"""Exact homology of weight slices: Smith normal form over Z, finitely
generated abelian groups, mod-p dimensions and ring structure, and the
Kunneth assembly of weighted homology tables.

Each homology computation compiles its weight slice once
(:func:`compile_slice`): the differential of every basis monomial is
evaluated one time into sparse boundary columns, ``{row: coefficient}`` per
basis monomial.  Everything downstream reads those columns: the d^2 = 0
check is the exact sparse product ``D_{i-1} D_i = 0`` over the algebra's
ring; mod-p ranks and kernels fill ``int64`` arrays straight from them; and
only Smith normal form gets a dense matrix.  Columns live for one call and
are not kept across weights; what repeats across words and weights (letter
products, letter differentials, letter bidegrees) is cached by
:class:`extbar.bar.BarAlgebra`.

A *weighted table* is a mapping ``(degree, weight) -> AbelianGroup`` holding
the homology of a weighted complex, with trivial groups omitted.  Tables are
what the closed-form predictors produce and what gets compared against
slice-by-slice computations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .algebra import Element, InternalAssertionError, Monomial, WdgAlgebra
from .modp import (
    _echelon,
    columns_mod_p,
    nullspace_mod_p,
    rank_of_columns_mod_p,
    solve_mod_p,
)

Matrix = List[List[int]]
TableKey = Tuple[int, int]


# ----------------------------------------------------------------------
# Smith normal form over Z
# ----------------------------------------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], int]:
    """Invariant factors ``d_1 | d_2 | ...`` (including 1s) and the rank.

    Classic gcd pivoting on arbitrary-precision integers: pick the smallest
    nonzero entry, clear its row and column by division with remainder
    (swapping in any smaller remainder), then absorb any entry the pivot
    fails to divide.  Deterministic and exact.

    >>> smith_normal_form([[2, 4], [6, 8]])
    ((2, 4), 2)
    >>> smith_normal_form([[1]])
    ((1,), 1)
    """
    a = [[int(v) for v in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("matrix rows must have equal length")
    factors: List[int] = []
    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q, r = divmod(a[i][t], a[t][t])
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if r:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q, r = divmod(a[t][j], a[t][t])
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if r:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if not dirty:
                break
        stray = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            for j in range(t, n):
                a[t][j] += a[stray][j]
            continue
        factors.append(abs(a[t][t]))
        t += 1
    return tuple(factors), len(factors)


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

#: One column of a boundary matrix: codomain row index -> nonzero coefficient.
Column = Dict[int, int]


def boundary_columns(algebra: WdgAlgebra, weight: int, degree: int) -> List[Column]:
    """Sparse columns of the differential out of ``degree`` in the given
    weight slice.

    Column ``j`` holds the differential of the ``j``-th basis monomial of
    degree ``degree``, keyed by row index in the degree-``degree - 1`` basis.
    ``diff_monomial`` is evaluated once per basis monomial.  Raises
    :class:`InternalAssertionError` if a differential leaves the slice.
    """
    slice_ = algebra.weight_slice(weight)
    index = {m: r for r, m in enumerate(slice_.get(degree - 1, ()))}
    columns: List[Column] = []
    for mono in slice_.get(degree, ()):
        column: Column = {}
        for m, c in algebra.diff_monomial(mono).items():
            r = index.get(m)
            if r is None:
                raise InternalAssertionError(
                    f"differential of {mono} leaves slice (weight {weight}, "
                    f"degree {degree})"
                )
            column[r] = c
        columns.append(column)
    return columns


def compile_slice(algebra: WdgAlgebra, weight: int) -> Dict[int, List[Column]]:
    """Boundary columns out of every degree of the weight slice: the one
    evaluation of the differential that a homology computation makes."""
    return {i: boundary_columns(algebra, weight, i) for i in algebra.weight_slice(weight)}


def _dense(columns: Sequence[Column], n_rows: int) -> Matrix:
    rows = [[0] * len(columns) for _ in range(n_rows)]
    for j, column in enumerate(columns):
        for r, c in column.items():
            rows[r][j] = c
    return rows


def _check_squares_to_zero(
    algebra: WdgAlgebra, weight: int, columns: Mapping[int, Sequence[Column]]
) -> None:
    """The exact sparse product ``D_{i-1} D_i`` is zero for every degree,
    checked column by column, i.e. on every basis monomial of the slice."""
    slice_ = algebra.weight_slice(weight)
    char = algebra.ring.char
    for i, cols in columns.items():
        below = columns.get(i - 1, ())
        for mono, column in zip(slice_[i], cols):
            acc: Dict[int, int] = {}
            for r, c in column.items():
                for s, e in below[r].items():
                    acc[s] = acc.get(s, 0) + c * e
            residues = (v % char for v in acc.values()) if char else acc.values()
            if any(residues):
                raise InternalAssertionError(
                    f"differential does not square to zero on {mono} "
                    f"(weight {weight})"
                )


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
    """Verify d(d(m)) = 0 for every basis monomial of the slice."""
    _check_squares_to_zero(algebra, weight, compile_slice(algebra, weight))


# ----------------------------------------------------------------------
# homology of a weight slice
# ----------------------------------------------------------------------


def homology_over_Z(
    algebra: WdgAlgebra, weight: int, check: bool = True
) -> Dict[int, AbelianGroup]:
    """Integral homology of one weight slice, trivial degrees omitted."""
    slice_ = algebra.weight_slice(weight)
    if not slice_:
        return {}
    columns = compile_slice(algebra, weight)
    if check:
        _check_squares_to_zero(algebra, weight, columns)
    snf: Dict[int, Tuple[Tuple[int, ...], int]] = {}
    for i, cols in columns.items():
        n_rows = len(slice_.get(i - 1, ()))
        snf[i] = smith_normal_form(_dense(cols, n_rows)) if n_rows else ((), 0)
    out: Dict[int, AbelianGroup] = {}
    for i in slice_:
        below = snf.get(i + 1, ((), 0))
        free = len(slice_[i]) - snf[i][1] - below[1]
        if free < 0:
            raise InternalAssertionError(f"negative free rank at degree {i}")
        torsion = [d for d in below[0] if d > 1]
        group = AbelianGroup.from_invariant_factors(torsion, free_rank=free)
        if not group.is_trivial:
            out[i] = group
    return out


def homology_over_Fp(
    algebra: WdgAlgebra, weight: int, p: int, check: bool = True
) -> Dict[int, int]:
    """Dimensions of mod-p homology of one weight slice (zeros omitted)."""
    slice_ = algebra.weight_slice(weight)
    if not slice_:
        return {}
    columns = compile_slice(algebra, weight)
    if check:
        _check_squares_to_zero(algebra, weight, columns)
    ranks = {
        i: rank_of_columns_mod_p(cols, len(slice_.get(i - 1, ())), p)
        for i, cols in columns.items()
    }
    out: Dict[int, int] = {}
    for i in slice_:
        dim = len(slice_[i]) - ranks[i] - ranks.get(i + 1, 0)
        if dim < 0:
            raise InternalAssertionError(f"negative mod-{p} dimension at degree {i}")
        if dim:
            out[i] = dim
    return out


def integral_homology_table(
    algebra: WdgAlgebra, weight_max: int, check: bool = True
) -> Dict[TableKey, AbelianGroup]:
    """Weighted table of integral homology for all weights up to the cap."""
    out: Dict[TableKey, AbelianGroup] = {}
    for d in range(weight_max + 1):
        for i, g in homology_over_Z(algebra, d, check=check).items():
            out[(i, d)] = g
    return out


# ----------------------------------------------------------------------
# the mod-p homology ring of a truncated algebra
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyClass:
    """A mod-p homology class in coordinates over the chosen basis."""

    degree: int
    weight: int
    vector: Tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.vector)


class FpHomologyRing:
    """Mod-p homology of all weight slices up to ``weight_max``, with the
    induced (weight-graded) ring structure.

    Representative cycles are chosen deterministically: kernel vectors of the
    boundary matrix, in order, that are independent of the boundaries.
    Products whose weight would exceed the truncation raise ``ValueError``.
    """

    def __init__(
        self, algebra: WdgAlgebra, p: int, weight_max: int, check: bool = True
    ) -> None:
        self.algebra = algebra
        self.p = p
        self.weight_max = weight_max
        self._basis: Dict[TableKey, Tuple[Monomial, ...]] = {}
        self._reps: Dict[TableKey, np.ndarray] = {}
        self._bounds: Dict[TableKey, np.ndarray] = {}
        for d in range(weight_max + 1):
            slice_ = algebra.weight_slice(d)
            columns = compile_slice(algebra, d)
            if check:
                _check_squares_to_zero(algebra, d, columns)
            for i, basis in slice_.items():
                self._basis[(i, d)] = basis
            for i, basis in slice_.items():
                out_matrix = columns_mod_p(columns[i], len(slice_.get(i - 1, ())), p)
                cycles = nullspace_mod_p(out_matrix, p)
                bounds = columns_mod_p(columns.get(i + 1, ()), len(basis), p).T
                bounds = bounds[np.any(bounds, axis=1)]
                self._bounds[(i, d)] = bounds
                self._reps[(i, d)] = self._pick_representatives(cycles, bounds)

    def _pick_representatives(self, cycles: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """The cycles independent of the boundaries and of the cycles before
        them: those that are pivot columns of the matrix whose columns are
        the boundaries, then the cycles."""
        columns = np.hstack([bounds.T, cycles.T])
        picked = [c - len(bounds) for c in _echelon(columns, self.p) if c >= len(bounds)]
        return cycles[picked]

    # -- bookkeeping -------------------------------------------------------

    def _key(self, degree: int, weight: int) -> TableKey:
        if not 0 <= weight <= self.weight_max:
            raise ValueError(
                f"weight {weight} outside the computed range 0..{self.weight_max}"
            )
        return (degree, weight)

    def dimension(self, degree: int, weight: int) -> int:
        return len(self._reps.get(self._key(degree, weight), ()))

    def dimensions(self) -> Dict[TableKey, int]:
        return {k: len(r) for k, r in sorted(self._reps.items()) if len(r)}

    def classes(self, degree: int, weight: int) -> Tuple[HomologyClass, ...]:
        n = self.dimension(degree, weight)
        return tuple(
            HomologyClass(degree, weight, tuple(int(v) for v in np.eye(n, dtype=np.int64)[k]))
            for k in range(n)
        )

    def representative(self, cls: HomologyClass) -> Element:
        """A representative cycle of the class, as an algebra element."""
        key = self._key(cls.degree, cls.weight)
        basis = self._basis.get(key, ())
        reps = self._reps[key]
        out: Dict[Monomial, int] = {}
        for coeff, row in zip(cls.vector, reps):
            if coeff % self.p == 0:
                continue
            for mono, c in zip(basis, row):
                if c:
                    v = (out.get(mono, 0) + coeff * int(c)) % self.p
                    if v:
                        out[mono] = v
                    else:
                        out.pop(mono, None)
        return out

    def express(self, element: Mapping[Monomial, int], degree: int, weight: int) -> HomologyClass:
        """Coordinates of a cycle's class in the chosen homology basis."""
        key = self._key(degree, weight)
        basis = self._basis.get(key, ())
        index = {m: k for k, m in enumerate(basis)}
        v = np.zeros(len(basis), dtype=np.int64)
        for m, c in element.items():
            k = index.get(m)
            if k is None:
                raise ValueError(f"monomial {m} not in slice ({degree}, {weight})")
            v[k] = c % self.p
        empty = np.zeros((0, len(basis)), dtype=np.int64)
        reps = self._reps.get(key, empty)
        bounds = self._bounds.get(key, empty)
        stack = (
            np.vstack([reps, bounds]) if len(bounds) else reps
        )
        if not len(stack):
            if np.any(v):
                raise ValueError("nonzero element in a slice with trivial homology")
            return HomologyClass(degree, weight, ())
        sol = solve_mod_p(stack.T, v, self.p)
        if sol is None:
            raise ValueError("element is not a cycle in this slice")
        return HomologyClass(degree, weight, tuple(int(x) for x in sol[: len(reps)]))

    # -- ring structure ------------------------------------------------------

    def unit(self) -> HomologyClass:
        return self.express({self.algebra.unit: 1}, 0, 0)

    def multiply(self, a: HomologyClass, b: HomologyClass) -> HomologyClass:
        degree = a.degree + b.degree
        weight = a.weight + b.weight
        if weight > self.weight_max:
            raise ValueError(
                f"product weight {weight} exceeds truncation {self.weight_max}"
            )
        product = self.algebra.mul(self.representative(a), self.representative(b))
        return self.express(product, degree, weight)


def homology_ring_over_Fp(
    algebra: WdgAlgebra, p: int, weight_max: int, check: bool = True
) -> FpHomologyRing:
    """Mod-p homology of all weight slices up to ``weight_max`` as a ring."""
    return FpHomologyRing(algebra, p, weight_max, check=check)


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
