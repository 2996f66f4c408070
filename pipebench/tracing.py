"""Spans and counters for the traced run, and the two homology routines of
``extbar.homology`` rebuilt from their public parts so each layer can be timed
from outside the package.

Nothing here patches ``extbar`` modules.  Counting wraps methods of single
algebra instances that the traced run builds itself, so untraced code paths
are untouched.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from extbar import AbelianGroup, smith_normal_form
from extbar.algebra import InternalAssertionError, WdgAlgebra
from extbar.homology import boundary_matrix, check_boundary_squares_to_zero
from extbar.modp import rank_mod_p


class Tracer:
    """Spans (with parent ids) and counters, held in memory until the end."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Dict]:
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._open.pop()

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def seconds(self) -> Dict[str, float]:
        """Summed duration of the spans of each name."""
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def count_calls(self, algebra: WdgAlgebra) -> None:
        """Count ``diff_monomial`` calls on ``algebra`` as ``bar.diff_evals``
        and ``diff_monomial``/``mul_monomials`` calls on every algebra it is
        built on as ``bar.inner_calls``."""
        self._wrap(algebra, "diff_monomial", "bar.diff_evals")
        inner: Optional[WdgAlgebra] = getattr(algebra, "base", None)
        while inner is not None:
            self._wrap(inner, "diff_monomial", "bar.inner_calls")
            self._wrap(inner, "mul_monomials", "bar.inner_calls")
            inner = getattr(inner, "base", None)

    def _wrap(self, algebra: WdgAlgebra, method: str, counter: str) -> None:
        fn = getattr(algebra, method)
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return fn(*args)

        setattr(algebra, method, counted)


# ----------------------------------------------------------------------
# homology of one weight slice, one timed span per layer call
# ----------------------------------------------------------------------


def _slice(tr: Tracer, algebra: WdgAlgebra, weight: int) -> Dict:
    with tr.span("bar.weight_slice", weight=weight):
        slice_ = algebra.weight_slice(weight)
    tr.counts["bar.basis_dim"] += sum(len(b) for b in slice_.values())
    if slice_:
        with tr.span("homology.d2_check", weight=weight):
            check_boundary_squares_to_zero(algebra, weight)
    return slice_


def _matrix(tr: Tracer, algebra: WdgAlgebra, weight: int, degree: int) -> List[List[int]]:
    with tr.span("homology.boundary_matrix", weight=weight, degree=degree) as s:
        matrix = boundary_matrix(algebra, weight, degree)
    cells = len(matrix) * (len(matrix[0]) if matrix else 0)
    nnz = sum(1 for row in matrix for v in row if v)
    s["attrs"].update(rows=len(matrix), cells=cells, nnz=nnz)
    tr.counts["homology.boundary_cells"] += cells
    tr.counts["homology.boundary_nnz"] += nnz
    tr.peak("homology.max_matrix_cells", cells)
    return matrix


def homology_over_Z(tr: Tracer, algebra: WdgAlgebra, weight: int) -> Dict[int, AbelianGroup]:
    """``extbar.homology.homology_over_Z`` with the d² check on."""
    slice_ = _slice(tr, algebra, weight)
    if not slice_:
        return {}
    snf: Dict[int, tuple] = {}

    def snf_at(i: int) -> tuple:
        if i not in snf:
            if slice_.get(i) and slice_.get(i - 1):
                matrix = _matrix(tr, algebra, weight, i)
                with tr.span("homology.snf", weight=weight, degree=i) as s:
                    snf[i] = smith_normal_form(matrix)
                bits = max((d.bit_length() for d in snf[i][0]), default=0)
                s["attrs"].update(rank=snf[i][1], max_factor_bits=bits)
                tr.counts["homology.snf_calls"] += 1
                tr.peak("homology.snf_max_factor_bits", bits)
            else:
                snf[i] = ((), 0)
        return snf[i]

    out: Dict[int, AbelianGroup] = {}
    for i in sorted(slice_):
        free = len(slice_[i]) - snf_at(i)[1] - snf_at(i + 1)[1]
        if free < 0:
            raise InternalAssertionError(f"negative free rank at degree {i}")
        torsion = [d for d in snf_at(i + 1)[0] if d > 1]
        group = AbelianGroup.from_invariant_factors(torsion, free_rank=free)
        if not group.is_trivial:
            out[i] = group
    return out


def homology_over_Fp(tr: Tracer, algebra: WdgAlgebra, weight: int, p: int) -> Dict[int, int]:
    """``extbar.homology.homology_over_Fp`` with the d² check on."""
    slice_ = _slice(tr, algebra, weight)
    if not slice_:
        return {}
    ranks: Dict[int, int] = {}

    def rank_at(i: int) -> int:
        if i not in ranks:
            if slice_.get(i) and slice_.get(i - 1):
                matrix = _matrix(tr, algebra, weight, i)
                with tr.span("modp.rank", weight=weight, degree=i, p=p) as s:
                    ranks[i] = rank_mod_p(matrix, p)
                s["attrs"]["rank"] = ranks[i]
                tr.counts["modp.rank_calls"] += 1
            else:
                ranks[i] = 0
        return ranks[i]

    out: Dict[int, int] = {}
    for i in sorted(slice_):
        dim = len(slice_[i]) - rank_at(i) - rank_at(i + 1)
        if dim < 0:
            raise InternalAssertionError(f"negative mod-{p} dimension at degree {i}")
        if dim:
            out[i] = dim
    return out
