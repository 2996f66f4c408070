"""Derived tables computed honestly from bar constructions.

The pipeline: build the n-fold bar construction of divided powers on m
weight-1 generators in degree 2 (n = 1 for the exterior target, n = 2 for
the divided-power target), take homology weight slice by weight slice, and
send a class of homological degree j and weight d to cohomological degree
``(n + 2) * d - j``.  The result is an :class:`ExtTable` of groups (over Z)
or dimensions (over a prime field) for the symmetric source.

This is the expensive, assumption-free route; the closed forms in
:mod:`extbar.predict` must agree with it wherever both apply, which is what
the verification suites check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .algebra import (
    DIVIDED,
    EXTERIOR,
    FreeAlgebra,
    InternalAssertionError,
    SYMMETRIC,
    WdgAlgebra,
)
from .bar import iterate_bar
from .homology import AbelianGroup, TableKey, homology_over_Fp, homology_over_Z
from .predict import ext_field_predict, poincare_dims
from .rings import Ring, ZZ


@dataclass(frozen=True)
class ExtTable:
    """A bigraded table keyed by (cohomological degree, weight).

    Exactly one of ``groups`` (integral coefficients) and ``dims`` (prime
    field) is populated.
    """

    source: str
    target: str
    ring: Ring
    s: int
    t: int
    m: int
    weight_max: int
    groups: Optional[Dict[TableKey, AbelianGroup]] = None
    dims: Optional[Dict[TableKey, int]] = None

    def __post_init__(self) -> None:
        if (self.groups is None) == (self.dims is None):
            raise ValueError("exactly one of groups/dims must be given")


def bar_source_algebra(n: int, m: int) -> WdgAlgebra:
    """The corner of the pipeline: the n-fold bar construction of divided
    powers on m weight-1 generators of degree 2."""
    return iterate_bar(FreeAlgebra(DIVIDED, [(2, 1, m)], ZZ), n)


def ext_table_via_bar(
    source: str,
    target: str,
    ring: Ring,
    weight_max: int,
    m: int = 1,
) -> ExtTable:
    """Compute the (source = S) table by bar homology and regrading.

    Raises ``ValueError`` for sources other than the symmetric functor
    (those reduce to closed forms and are served by the predictors).
    """
    if source != SYMMETRIC:
        raise ValueError("the bar pipeline computes symmetric-source tables only")
    if target == EXTERIOR:
        n = 1
    elif target == DIVIDED:
        n = 2
    else:
        raise ValueError("target must be Lambda or Gamma")
    algebra = bar_source_algebra(n, m)
    shift = n + 2

    merged: Dict[TableKey, object] = {}
    for d in range(weight_max + 1):
        if ring.is_field:
            column = homology_over_Fp(algebra, d, ring.char)
        else:
            column = homology_over_Z(algebra, d)
        for j, value in column.items():
            i = shift * d - j
            if i < 0:
                raise InternalAssertionError(
                    f"homology class at ({j}, {d}) regrades below degree 0"
                )
            merged[(i, d)] = value
    merged = dict(sorted(merged.items()))
    if ring.is_field:
        return ExtTable(source, target, ring, 0, 0, m, weight_max, dims=merged)  # type: ignore[arg-type]
    return ExtTable(source, target, ring, 0, 0, m, weight_max, groups=merged)  # type: ignore[arg-type]


def hom_dimension(source: str, target: str, p: int, weight: int, m: int = 1) -> int:
    """Dimension of the degree-0 (plain natural transformations) entry of
    the weight-``weight`` column over F_p."""
    spec = ext_field_predict(source, target, p, weight, m)
    return poincare_dims(spec, weight).get((0, weight), 0)
