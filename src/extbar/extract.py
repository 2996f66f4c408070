"""Derived tables computed honestly from bar constructions.

The pipeline: build the n-fold bar construction of divided powers on m
weight-1 generators in degree 2 (n = 1 for the exterior target, n = 2 for
the divided-power target), take homology weight slice by weight slice, and
send a class of homological degree j and weight d to cohomological degree
``(n + 2) * d - j``.  The choice of n and the regrading are
:func:`extbar.predict.bar_iterations` and
:func:`extbar.predict.regrade_bar_table`, which the integral closed forms
(:func:`extbar.predict.ext_integral_predict`) share.  The result is an
:class:`ExtTable` of groups (over Z) or dimensions (over a prime field) for
the symmetric source.

This is the expensive, assumption-free route; the closed forms in
:mod:`extbar.predict` must agree with it wherever both apply, which is what
the verification suites check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .algebra import DIVIDED, SYMMETRIC, FreeAlgebra, WdgAlgebra
from .bar import BarAlgebra
from .homology import AbelianGroup, TableKey, homology_over_Fp, homology_over_Z
from .predict import bar_iterations, ext_field_predict, poincare_dims, regrade_bar_table
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


#: The towers :func:`bar_source_algebra` serves, by generator rank ``m``:
#: ``levels[0]`` is divided powers on ``m`` generators and each level above
#: is the bar construction of the one below.  The map is rebound whole,
#: never mutated, so a thread that reads it sees complete towers.
_towers: Dict[int, Tuple[WdgAlgebra, ...]] = {}


def bar_source_algebra(n: int, m: int) -> WdgAlgebra:
    """The corner of the pipeline: the n-fold bar construction of divided
    powers on m weight-1 generators of degree 2.

    One tower per rank ``m`` is shared per process: level ``n`` of the
    tower on ``m`` generators is returned, and a tower too short for ``n``
    grows by bar constructions on top.  Towers on other ranks are kept
    alongside, so callers asking for the same ``m`` get the same instances,
    with the columns they have compiled and the slices that passed the d^2
    check, for the life of the process.  Each level's compiled columns are
    also the letter differentials of the level above
    (:meth:`~extbar.bar.BarAlgebra._diff_of`).  The map of towers is built
    anew and bound in one assignment, so callers in several threads each get
    a tower of depth ``n`` on ``m`` generators."""
    global _towers
    if n < 0:
        raise ValueError("bar iteration count must be >= 0")
    levels = _towers.get(m, ())
    if len(levels) <= n:
        levels = levels or (FreeAlgebra(DIVIDED, [(2, 1, m)], ZZ),)
        while len(levels) <= n:
            levels += (BarAlgebra(levels[-1]),)
        _towers = {**_towers, m: levels}
    return levels[n]


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
    n = bar_iterations(target)
    algebra = bar_source_algebra(n, m)
    homology: Dict[TableKey, object] = {}
    for d in range(weight_max + 1):
        if ring.is_field:
            column = homology_over_Fp(algebra, d, ring.char)
        else:
            column = homology_over_Z(algebra, d)
        for j, value in column.items():
            homology[(j, d)] = value
    table = regrade_bar_table(homology, n)
    if ring.is_field:
        return ExtTable(source, target, ring, 0, 0, m, weight_max, dims=table)  # type: ignore[arg-type]
    return ExtTable(source, target, ring, 0, 0, m, weight_max, groups=table)  # type: ignore[arg-type]


def hom_dimension(source: str, target: str, p: int, weight: int, m: int = 1) -> int:
    """Dimension of the degree-0 (plain natural transformations) entry of
    the weight-``weight`` column over F_p."""
    spec = ext_field_predict(source, target, p, weight, m)
    return poincare_dims(spec, weight).get((0, weight), 0)
